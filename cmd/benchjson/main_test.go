package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
