package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
			c.Add(10)
		}()
	}
	wg.Wait()
	if got, want := c.Load(), int64(workers*(per+10)); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestTimer(t *testing.T) {
	var tm Timer
	tm.Observe(100 * time.Millisecond)
	tm.Observe(50 * time.Millisecond)
	if got := tm.Total(); got != 150*time.Millisecond {
		t.Fatalf("total = %v, want 150ms", got)
	}
	stop := tm.Start()
	d := stop()
	if d < 0 {
		t.Fatalf("negative elapsed %v", d)
	}
	if got := tm.Total(); got != 150*time.Millisecond+d {
		t.Fatalf("total after Start/stop = %v, want 150ms + %v", got, d)
	}
}

func TestTimerConcurrent(t *testing.T) {
	var tm Timer
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tm.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := tm.Total(); got != 800*time.Microsecond {
		t.Fatalf("total = %v, want 800µs", got)
	}
}

func TestPhases(t *testing.T) {
	p := &Phases{}
	stop := p.Start("load")
	time.Sleep(time.Millisecond)
	stop()
	stop = p.Start("search")
	stop()
	// Repeated names accumulate instead of duplicating.
	stop = p.Start("search")
	stop()

	m := p.Map()
	if len(m) != 2 {
		t.Fatalf("phase map = %v", m)
	}
	if m["load"] <= 0 {
		t.Fatal("load phase has zero duration")
	}
	if _, ok := m["search"]; !ok {
		t.Fatalf("phase map lacks search: %v", m)
	}
}

func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(Event{Kind: "input", Input: "a", Steps: 1})
	tr.Emit(Event{Kind: "path", Path: "a→z", DelayPs: 12.5, Steps: 9})
	tr.Emit(Event{Kind: "done", Steps: 9, N: 1})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if got := strings.Join(kinds, ","); got != "input,path,done" {
		t.Fatalf("event kinds = %s", got)
	}
}

func TestPrinter(t *testing.T) {
	var buf bytes.Buffer
	p := NewPrinter(&buf)
	p.Update(1000, 10000, 3)
	p.Update(2000, 10000, 5)
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "steps") || !strings.Contains(out, "paths 5") {
		t.Fatalf("progress output = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("Finish did not terminate the line")
	}
	// Finish without updates stays silent.
	var quiet bytes.Buffer
	NewPrinter(&quiet).Finish()
	if quiet.Len() != 0 {
		t.Fatalf("silent Finish wrote %q", quiet.String())
	}

	// Done always draws a final line, even with no prior updates.
	var final bytes.Buffer
	NewPrinter(&final).Done(21, 11)
	got := final.String()
	if !strings.Contains(got, "21 steps") || !strings.Contains(got, "11 paths") {
		t.Fatalf("Done output = %q", got)
	}
	if !strings.HasSuffix(got, "\n") {
		t.Fatal("Done did not terminate the line")
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	Publish("obs.test", func() any { return map[string]int{"x": 1} })
	Publish("obs.test", func() any { return nil }) // duplicate is a no-op, not a panic
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["obs.test"]; !ok {
		t.Fatal("published var missing from /debug/vars")
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
}
