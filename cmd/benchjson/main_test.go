package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeBaseline records a minimal artifact file for compareBaseline.
func writeBaseline(t *testing.T, bench map[string]metrics) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	r := report{Artifact: "test", Bench: bench}
	buf, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaseline(t *testing.T) {
	base := writeBaseline(t, map[string]metrics{
		"Search/off":     {NsPerOp: 1000},
		"Search/metrics": {NsPerOp: 1000, AllocsPerOp: 0},
		"OnlyInBaseline": {NsPerOp: 5},
	})

	// Within tolerance (+10% on a 15% budget) and an improvement: pass.
	var out bytes.Buffer
	n, err := compareBaseline(&out, map[string]metrics{
		"Search/off":     {NsPerOp: 1100},
		"Search/metrics": {NsPerOp: 900},
		"OnlyInBaseline": {NsPerOp: 5},
		"OnlyFresh":      {NsPerOp: 1},
	}, base, 0.15)
	if err != nil || n != 0 {
		t.Fatalf("within-tolerance compare: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "Search/off") || strings.Contains(out.String(), "OnlyFresh") {
		t.Errorf("verdict lines wrong:\n%s", out.String())
	}

	// Every baseline row the fresh run lacks is listed and fails, even
	// when the shared rows pass.
	out.Reset()
	n, err = compareBaseline(&out, map[string]metrics{"Search/off": {NsPerOp: 1000}}, base, 0.15)
	if err != nil || n != 2 {
		t.Fatalf("missing-row compare: %d failures, err %v\n%s", n, err, out.String())
	}
	for _, name := range []string{"Search/metrics", "OnlyInBaseline"} {
		if !strings.Contains(out.String(), name+" ") || !strings.Contains(out.String(), "MISSING") {
			t.Errorf("missing row %s not listed:\n%s", name, out.String())
		}
	}

	// A 30% slowdown regresses.
	out.Reset()
	n, err = compareBaseline(&out, map[string]metrics{
		"Search/off":     {NsPerOp: 1300},
		"Search/metrics": {NsPerOp: 1000},
		"OnlyInBaseline": {NsPerOp: 5},
	}, base, 0.15)
	if err != nil || n != 1 {
		t.Fatalf("slowdown compare: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict:\n%s", out.String())
	}

	// New allocations over a zero-alloc baseline regress even when fast.
	out.Reset()
	n, err = compareBaseline(&out, map[string]metrics{
		"Search/off":     {NsPerOp: 1000},
		"Search/metrics": {NsPerOp: 500, AllocsPerOp: 2},
		"OnlyInBaseline": {NsPerOp: 5},
	}, base, 0.15)
	if err != nil || n != 1 {
		t.Fatalf("alloc compare: %d regressions, err %v\n%s", n, err, out.String())
	}
	if !strings.Contains(out.String(), "allocs: 0 -> 2") {
		t.Errorf("alloc verdict missing:\n%s", out.String())
	}

	// Disjoint benchmark sets are an error, not a silent pass.
	if _, err := compareBaseline(&out, map[string]metrics{"Other": {NsPerOp: 1}}, base, 0.15); err == nil {
		t.Error("disjoint compare passed silently")
	}
	if _, err := compareBaseline(&out, nil, filepath.Join(t.TempDir(), "missing.json"), 0.15); err == nil {
		t.Error("missing baseline passed silently")
	}
}

func TestCheckMinRatio(t *testing.T) {
	bench := map[string]metrics{
		"MultiCorner/independent": {NsPerOp: 3000},
		"MultiCorner/sweep":       {NsPerOp: 1500},
	}
	var out bytes.Buffer
	if err := checkMinRatio(&out, bench, "MultiCorner/independent,MultiCorner/sweep,1.5"); err != nil {
		t.Errorf("2.0x against a 1.5x minimum should pass: %v", err)
	}
	if !strings.Contains(out.String(), "2.00x") {
		t.Errorf("verdict line missing the measured ratio: %q", out.String())
	}
	if err := checkMinRatio(&out, bench, "MultiCorner/independent,MultiCorner/sweep,2.5"); err == nil {
		t.Error("2.0x against a 2.5x minimum should fail")
	}
	for _, spec := range []string{
		"",
		"a,b",
		"a,b,c,d",
		"MultiCorner/independent,MultiCorner/sweep,zero",
		"MultiCorner/independent,MultiCorner/sweep,-1",
		"missing,MultiCorner/sweep,1.5",
		"MultiCorner/independent,missing,1.5",
	} {
		if err := checkMinRatio(&out, bench, spec); err == nil {
			t.Errorf("spec %q should be rejected", spec)
		}
	}
}

// TestParseLineGOMAXPROCSSuffix pins row naming across core counts: the
// same sub-benchmark must be recorded under one name whether go test
// ran it at GOMAXPROCS 1 (no suffix) or 2 ("-2"). A row whose own name
// ends in "-<digits>" cannot be told apart from the suffix, which is
// why BenchmarkWorkStealing names its pool row stealing-w4.
func TestParseLineGOMAXPROCSSuffix(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"BenchmarkWorkStealing/stealing-w4         \t      10\t  83000000 ns/op\t49812363 B/op\t  756854 allocs/op", "WorkStealing/stealing-w4"},
		{"BenchmarkWorkStealing/stealing-w4-2       \t      10\t  83000000 ns/op\t49812363 B/op\t  756854 allocs/op", "WorkStealing/stealing-w4"},
		{"BenchmarkArcDelays/batched-4   634924   453.0 ns/op   0 B/op   0 allocs/op", "ArcDelays/batched"},
	} {
		name, mt, ok := parseLine(tc.line)
		if !ok || name != tc.want {
			t.Errorf("parseLine(%q) = %q, %v; want %q", tc.line, name, ok, tc.want)
		}
		if mt.NsPerOp <= 0 {
			t.Errorf("parseLine(%q): ns/op %v", tc.line, mt.NsPerOp)
		}
	}
	if _, _, ok := parseLine("goos: linux"); ok {
		t.Error("non-result line parsed as a row")
	}
}

// TestSummarizeMedian: a benchmark run several times is recorded as
// the median of each column, with every sample's ns/op kept, and a
// single run is recorded as it is.
func TestSummarizeMedian(t *testing.T) {
	var runs []metrics
	for _, line := range []string{
		"BenchmarkKWorstDelay-2   2000   140000 ns/op   9000 B/op   90 allocs/op",
		"BenchmarkKWorstDelay-2   2000   500000 ns/op   9100 B/op   90 allocs/op",
		"BenchmarkKWorstDelay-2   2000   120000 ns/op   8900 B/op   90 allocs/op",
		"BenchmarkKWorstDelay-2   2000   130000 ns/op   9000 B/op   91 allocs/op",
		"BenchmarkKWorstDelay-2   2000   125000 ns/op   9000 B/op   90 allocs/op",
	} {
		name, mt, ok := parseLine(line)
		if !ok || name != "KWorstDelay" {
			t.Fatalf("parseLine(%q) = %q, %v", line, name, ok)
		}
		runs = append(runs, mt)
	}
	got := summarize(runs)
	want := metrics{NsPerOp: 130000, BytesPerOp: 9000, AllocsPerOp: 90,
		Samples: []float64{140000, 500000, 120000, 130000, 125000}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("median of five = %+v, want %+v", got, want)
	}
	// An even count takes the mean of the middle two.
	four := metrics{NsPerOp: 135000, BytesPerOp: 9000, AllocsPerOp: 90,
		Samples: []float64{140000, 500000, 120000, 130000}}
	if got := summarize(runs[:4]); !reflect.DeepEqual(got, four) {
		t.Errorf("median of four = %+v, want %+v", got, four)
	}
	if got := summarize(runs[:1]); !reflect.DeepEqual(got, metrics{NsPerOp: 140000, BytesPerOp: 9000, AllocsPerOp: 90}) {
		t.Errorf("single run = %+v, want it unchanged with no samples", got)
	}

	// The recorded median, not an outlying sample, is what -compare
	// checks: the 500000 ns/op run alone would regress.
	base := writeBaseline(t, map[string]metrics{"KWorstDelay": {NsPerOp: 125000, AllocsPerOp: 90}})
	var out bytes.Buffer
	if n, err := compareBaseline(&out, map[string]metrics{"KWorstDelay": got}, base, 0.15); err != nil || n != 0 {
		t.Errorf("median compare: %d regressions, err %v\n%s", n, err, out.String())
	}
}

// TestPairsSummary checks the -pairs summary of a bench-pairs log:
// per-side medians and quartiles, wins, and the bound flag.
func TestPairsSummary(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end": [
		{"name": "latency_ms", "better": "lower", "bound": 0.25},
		{"name": "peak_rss_mb", "better": "lower", "bound": 0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	run := func(pair int, side string, lat, rss float64) {
		fmt.Fprintf(&log, `{"pair":%d,"side":"%s","result":{"correct":true,"metrics":{"latency_ms":{"value":%g},"peak_rss_mb":{"value":%g}}}}`+"\n",
			pair, side, lat, rss)
	}
	// The change wins latency in four pairs of five and loses peak RSS
	// by 50% in every pair.
	for i, lat := range []float64{100, 110, 90, 120, 105} {
		run(i+1, "parent", lat, 20)
		change := lat * 0.8
		if i == 3 {
			change = lat * 1.1
		}
		run(i+1, "change", change, 30)
	}
	path := filepath.Join(dir, "pairs.jsonl")
	if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var table, js bytes.Buffer
	past, err := runPairs(path, bounds, &table, &js)
	if err != nil {
		t.Fatal(err)
	}
	if past != 1 || !strings.Contains(table.String(), "PAST BOUND") {
		t.Errorf("%d metrics past their bound, want 1 (peak_rss_mb):\n%s", past, table.String())
	}
	var sum pairSummary
	if err := json.Unmarshal(js.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	lat := sum.EndToEnd["latency_ms"]
	want := spread{Median: 105, Q1: 95, Q3: 115}
	if sum.Pairs != 5 || lat.Parent != want || lat.Wins != 4 || lat.PastBound {
		t.Errorf("latency_ms summary %+v over %d pairs, want parent %+v and 4 wins", lat, sum.Pairs, want)
	}
	if rss := sum.EndToEnd["peak_rss_mb"]; !rss.PastBound || rss.Wins != 0 {
		t.Errorf("peak_rss_mb summary %+v, want past its bound with no wins", rss)
	}

	// A failed run or an unpaired side is an error, not a summary.
	for name, bad := range map[string]string{
		"failed":   `{"pair":1,"side":"parent","result":null}`,
		"unpaired": `{"pair":1,"side":"parent","result":{"correct":true,"metrics":{}}}`,
	} {
		if err := os.WriteFile(path, []byte(bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := runPairs(path, bounds, io.Discard, io.Discard); err == nil {
			t.Errorf("%s log: no error", name)
		}
	}
}
