package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"tpsta/internal/circuits"
	"tpsta/internal/obs"
)

// TestStatsDeterministic pins the exact instrumentation counts for the
// structure-only engines on fig4 and c17. The search is deterministic (no
// randomness, fixed iteration order), so any drift here means either the
// search behavior or the instrumentation changed — both are worth a look.
func TestStatsDeterministic(t *testing.T) {
	cases := []struct {
		circuit string
		want    SearchStats
	}{
		{"fig4", SearchStats{
			SensitizationAttempts: 70,
			Conflicts:             23,
			PathsRecorded:         17,
			Truncation:            TruncNone,
		}},
		{"c17", SearchStats{
			SensitizationAttempts: 21,
			PathsRecorded:         11,
			Truncation:            TruncNone,
		}},
	}
	for _, tc := range cases {
		e := structEngine(t, tc.circuit)
		res, err := e.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Stats(); got != tc.want {
			t.Errorf("%s stats = %+v, want %+v", tc.circuit, got, tc.want)
		}
		if res.Stats != e.Stats() {
			t.Errorf("%s: Result.Stats %+v != Engine.Stats() %+v", tc.circuit, res.Stats, e.Stats())
		}
		// Identical second run on a fresh engine must reproduce exactly.
		e2 := structEngine(t, tc.circuit)
		if _, err := e2.Enumerate(); err != nil {
			t.Fatal(err)
		}
		if e.Stats() != e2.Stats() {
			t.Errorf("%s: stats differ across identical runs: %+v vs %+v",
				tc.circuit, e.Stats(), e2.Stats())
		}
	}
}

func TestTruncationReasons(t *testing.T) {
	c, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}

	// A single-variant cap fires TruncMaxVariants.
	e := New(c, t130(t), nil, Options{MaxVariants: 1})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Truncation != TruncMaxVariants {
		t.Errorf("MaxVariants=1: truncated=%v reason=%v", res.Truncated, res.Truncation)
	}

	// A tiny step budget fires TruncMaxSteps (Enumerate spreads the
	// budget, so the per-input quota path reports the global cause).
	e = New(c, t130(t), nil, Options{MaxSteps: 3})
	res, err = e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Truncation != TruncMaxSteps {
		t.Errorf("MaxSteps=3: truncated=%v reason=%v", res.Truncated, res.Truncation)
	}
	// Budget spreading checks the quota between decisions, so the search
	// may overshoot by at most one step per input before stopping.
	if res.Stats.SensitizationAttempts > 3+int64(len(c.Inputs)) {
		t.Errorf("MaxSteps=3: took %d steps", res.Stats.SensitizationAttempts)
	}

	// An untruncated run reports TruncNone.
	e = New(c, t130(t), nil, Options{})
	res, err = e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Truncation != TruncNone {
		t.Errorf("unbounded: truncated=%v reason=%v", res.Truncated, res.Truncation)
	}
}

func TestTruncReasonJSONRoundtrip(t *testing.T) {
	for _, r := range []TruncReason{TruncNone, TruncInputQuota, TruncMaxVariants, TruncMaxSteps} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back TruncReason
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != r {
			t.Errorf("roundtrip %v -> %s -> %v", r, b, back)
		}
	}
	var bad TruncReason
	if err := json.Unmarshal([]byte(`"bogus"`), &bad); err == nil {
		t.Error("unknown reason accepted")
	}
}

// collectTracer records events for assertions. Parallel searches emit
// from every worker, so Emit locks (the obs.Tracer contract).
type collectTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collectTracer) Emit(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

func TestTracerAndProgressHooks(t *testing.T) {
	c, err := circuits.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	var calls []ProgressInfo
	e := New(c, t130(t), nil, Options{
		Tracer:        tr,
		Progress:      func(pi ProgressInfo) { calls = append(calls, pi) },
		ProgressEvery: 1, // fire on every step so tiny circuits still report
	})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}

	if len(tr.events) == 0 {
		t.Fatal("no trace events emitted")
	}
	last := tr.events[len(tr.events)-1]
	if last.Kind != "done" {
		t.Errorf("last event kind = %q, want done", last.Kind)
	}
	if last.Steps != res.Stats.SensitizationAttempts {
		t.Errorf("done event steps = %d, want %d", last.Steps, res.Stats.SensitizationAttempts)
	}
	paths := 0
	for _, ev := range tr.events {
		if ev.Kind == "path" {
			paths++
		}
	}
	if int64(paths) != res.Stats.PathsRecorded {
		t.Errorf("path events = %d, want %d", paths, res.Stats.PathsRecorded)
	}

	if len(calls) == 0 {
		t.Fatal("no progress callbacks fired")
	}
	final := calls[len(calls)-1]
	if !final.Done {
		t.Error("final progress callback not marked Done")
	}
	if final.Steps != res.Stats.SensitizationAttempts {
		t.Errorf("final progress steps = %d, want %d", final.Steps, res.Stats.SensitizationAttempts)
	}
}

// TestStatsJSONShape guards the serialized field names the tpsta -stats
// report promises.
func TestStatsJSONShape(t *testing.T) {
	e := structEngine(t, "fig4")
	if _, err := e.Enumerate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(e.Stats()); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"sensitizationAttempts", "conflicts", "backtracks",
		"justificationAborts", "inputQuotaExhaustions",
		"pathsRecorded", "pathsDeduped", "truncation",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats JSON missing %q (have %v)", key, m)
		}
	}
}
