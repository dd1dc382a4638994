package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// Instrument names follow the obscheck discipline.
const (
	omSteps   = "core.steps"
	omWorkers = "core.workers_busy"
	omStep    = "core.step"
)

func exampleSnapshot() Snapshot {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.ObserveNs(int64(100 + i))
	}
	h.ObserveNs(1 << 20)
	return Snapshot{
		Counters:   map[string]int64{omSteps: 42},
		Gauges:     map[string]int64{omWorkers: 4},
		Histograms: map[string]HistogramStat{omStep: h.Stat()},
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	var buf bytes.Buffer
	help := map[string]string{omSteps: "sensitization attempts"}
	if err := WriteOpenMetrics(&buf, exampleSnapshot(), help); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkOpenMetrics(t, out)

	for _, want := range []string{
		"# HELP tpsta_core_steps sensitization attempts",
		"# TYPE tpsta_core_steps counter",
		"tpsta_core_steps_total 42",
		"# TYPE tpsta_core_workers_busy gauge",
		"tpsta_core_workers_busy 4",
		"# TYPE tpsta_core_step_seconds histogram",
		`tpsta_core_step_seconds_bucket{le="+Inf"} 101`,
		"tpsta_core_step_seconds_count 101",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// checkOpenMetrics is a structural validator for the exposition text:
// every line is a comment or a `name[{labels}] value` sample, histogram
// bucket counts are cumulative and consistent with _count, and the
// text ends with # EOF.
func checkOpenMetrics(t *testing.T, out string) {
	t.Helper()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF: %q", out[max(0, len(out)-40):])
	}
	lastBucket := map[string]int64{}
	counts := map[string]int64{}
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name == "" {
			t.Fatalf("line %d is not `name value`: %q", i, line)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d has non-numeric value %q", i, line)
		}
		if base, rest, ok := strings.Cut(name, "{"); ok {
			if !strings.HasSuffix(base, "_bucket") || !strings.HasSuffix(rest, "\"}") {
				t.Fatalf("line %d has unexpected labels: %q", i, line)
			}
			n, _ := strconv.ParseInt(val, 10, 64)
			fam := strings.TrimSuffix(base, "_bucket")
			if n < lastBucket[fam] {
				t.Fatalf("histogram %s buckets not cumulative at line %d", fam, i)
			}
			lastBucket[fam] = n
		} else if strings.HasSuffix(name, "_count") {
			n, _ := strconv.ParseInt(val, 10, 64)
			counts[strings.TrimSuffix(name, "_count")] = n
		}
	}
	for fam, last := range lastBucket {
		if counts[fam] != last {
			t.Fatalf("histogram %s +Inf bucket %d != count %d", fam, last, counts[fam])
		}
	}
}

func TestMetricsHandlerAndServe(t *testing.T) {
	RegisterMetrics("test.om", func() Snapshot { return exampleSnapshot() })
	defer RegisterMetrics("test.om", nil)
	addr, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkOpenMetrics(t, string(body))
	if !strings.Contains(string(body), "tpsta_core_step_seconds_bucket") {
		t.Fatalf("served exposition lacks the histogram:\n%s", body)
	}

	// The ServeDebug mux carries /metrics too.
	daddr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	dresp, err := http.Get(fmt.Sprintf("http://%s/metrics", daddr))
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	dbody, _ := io.ReadAll(dresp.Body)
	checkOpenMetrics(t, string(dbody))
}

func TestPromName(t *testing.T) {
	for key, want := range map[string]string{
		"core.paths_recorded": "tpsta_core_paths_recorded",
		"charlib.fit.solve":   "tpsta_charlib_fit_solve",
		"weird-name":          "tpsta_weird_name",
	} {
		if got := promName(key); got != want {
			t.Errorf("promName(%q) = %q, want %q", key, got, want)
		}
	}
}
