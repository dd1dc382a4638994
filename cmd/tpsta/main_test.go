package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/tech"
)

// TestRunEndToEnd drives the CLI entry point over the bundled testdata in
// both netlist formats, structure-only (no characterization) for speed.
func TestRunEndToEnd(t *testing.T) {
	for _, src := range []config{
		{benchFile: "../../testdata/mini.bench"},
		{verilogFile: "../../testdata/mini.v"},
	} {
		src.techName = "130nm"
		src.k = 5
		src.maxSteps = 10000
		src.quickChar = true
		src.structural = true
		if err := run(src, io.Discard); err != nil {
			t.Fatalf("run(%+v): %v", src, err)
		}
	}
	// Built-in circuit path with a cone restriction and detail report.
	if err := run(config{circuitName: "c17", coneOutputs: "22", detail: true,
		techName: "130nm", k: 3, maxSteps: 10000, quickChar: true, structural: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Unknown tech and unknown circuit fail cleanly.
	if err := run(config{circuitName: "c17", techName: "28nm", k: 3, maxSteps: 1000,
		quickChar: true, structural: true}, io.Discard); err == nil {
		t.Error("unknown tech should fail")
	}
	if err := run(config{circuitName: "c9999", techName: "130nm", k: 3, maxSteps: 1000,
		quickChar: true, structural: true}, io.Discard); err == nil {
		t.Error("unknown circuit should fail")
	}
}

// TestRunStatsAndTrace exercises the observability flags: the -stats
// report must be valid JSON with nonzero search counters, and the
// -trace file must hold one valid JSON event per line, closing with the
// root "run" span after the search's "done" event, with sampled step
// events in between (-trace-sample).
func TestRunStatsAndTrace(t *testing.T) {
	dir := t.TempDir()
	statsPath := filepath.Join(dir, "run.json")
	tracePath := filepath.Join(dir, "run.jsonl")
	if err := run(config{circuitName: "c17", techName: "130nm", k: 5, maxSteps: 10000,
		structural: true, statsFile: statsPath, traceFile: tracePath, traceSample: 7}, io.Discard); err != nil {
		t.Fatal(err)
	}

	buf, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var sr statsReport
	if err := json.Unmarshal(buf, &sr); err != nil {
		t.Fatalf("stats report is not valid JSON: %v", err)
	}
	if sr.Search.SensitizationAttempts == 0 {
		t.Error("stats report has zero sensitization attempts")
	}
	if sr.Result.Paths == 0 {
		t.Error("stats report has zero paths")
	}
	if _, ok := sr.PhaseSeconds["search"]; !ok {
		t.Error("stats report missing search phase timing")
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type traceLine struct {
		Kind  string `json:"kind"`
		Name  string `json:"name"`
		Steps int64  `json:"steps"`
	}
	var last, done traceLine
	lines, stepEvents := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v", lines+1, err)
		}
		lines++
		switch last.Kind {
		case "done":
			done = last
		case "step":
			stepEvents++
		}
	}
	if lines == 0 {
		t.Fatal("trace file is empty")
	}
	if last.Kind != "span" || last.Name != "run" {
		t.Errorf("last trace event = %q %q, want the root run span", last.Kind, last.Name)
	}
	if done.Kind != "done" {
		t.Error("trace has no done event")
	}
	if done.Steps != sr.Search.SensitizationAttempts {
		t.Errorf("trace done steps = %d, stats report = %d", done.Steps, sr.Search.SensitizationAttempts)
	}
	if stepEvents == 0 {
		t.Error("traceSample set but no step events recorded")
	}
}

// TestRunWithSDFAndTests exercises the artifact-writing paths with a
// quick characterization. The -sdf exit runs no search but must still
// write a valid -stats report and a -trace file that ends in the root
// "run" span.
func TestRunWithSDFAndTests(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes a library")
	}
	dir := t.TempDir()
	sdfPath := filepath.Join(dir, "out.sdf")
	statsPath := filepath.Join(dir, "sdf.json")
	tracePath := filepath.Join(dir, "sdf.jsonl")
	if err := run(config{benchFile: "../../testdata/mini.bench", sdfFile: sdfPath,
		statsFile: statsPath, traceFile: tracePath,
		techName: "130nm", k: 3, maxSteps: 10000, quickChar: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(sdfPath); err != nil || st.Size() == 0 {
		t.Fatalf("sdf not written: %v", err)
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var sr statsReport
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("-sdf stats report is not valid JSON: %v\n%s", err, raw)
	}
	if sr.Characterization == nil {
		t.Error("-sdf stats report lacks the characterization block")
	}
	if !bytes.Contains(raw, []byte(`"cappedOperatingPoints"`)) {
		t.Error("-sdf stats report lacks the capped operating point count")
	}
	if _, ok := sr.PhaseSeconds["characterize"]; !ok {
		t.Error("-sdf stats report lacks the characterize phase timing")
	}
	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var last struct {
		Kind string `json:"kind"`
		Name string `json:"name"`
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("-sdf trace line %d is not valid JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines == 0 || last.Kind != "span" || last.Name != "run" {
		t.Errorf("-sdf trace has %d lines ending in %q %q, want the root run span last", lines, last.Kind, last.Name)
	}
	testsPath := filepath.Join(dir, "tests.txt")
	if err := run(config{circuitName: "c17", testsFile: testsPath,
		techName: "130nm", k: 3, maxSteps: 10000, quickChar: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(testsPath); err != nil || st.Size() == 0 {
		t.Fatalf("tests not written: %v", err)
	}
}

// TestRunRejectsMalformedLibrary feeds -lib a NAND2 library with one
// arc's delay model truncated (Lo cut to three of its four variables):
// both the search and the -sdf exit must return an error naming the
// arc, not panic at the first delay query.
func TestRunRejectsMalformedLibrary(t *testing.T) {
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := charlib.Characterize(tc, cell.Default(), charlib.TestGrid(), charlib.Options{Cells: []string{"NAND2"}})
	if err != nil {
		t.Fatal(err)
	}
	key := lib.ArcKeys()[0]
	m := lib.Poly[key].Delay
	m.Lo = m.Lo[:3]
	dir := t.TempDir()
	libPath := filepath.Join(dir, "bad.json")
	f, err := os.Create(libPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, sdf := range []string{"", filepath.Join(dir, "out.sdf")} {
		err := run(config{circuitName: "c17", libFile: libPath, sdfFile: sdf,
			techName: "130nm", k: 3, maxSteps: 10000}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("sdf=%q: error %v, want one naming arc %s", sdf, err, key)
		}
	}
}

// TestRunCornerFlags pins the operating-point flag contract: malformed
// -corners specs and non-physical -temp/-vdd values fail with usage
// errors before any characterization work, and a well-formed sweep
// runs end to end.
func TestRunCornerFlags(t *testing.T) {
	base := config{circuitName: "c17", techName: "130nm", k: 5,
		maxSteps: 10000, quickChar: true, structural: true}
	bad := []struct {
		name string
		mut  func(*config)
	}{
		{"nan temp", func(c *config) { c.temp = math.NaN() }},
		{"inf temp", func(c *config) { c.temp = math.Inf(1) }},
		{"negative vdd", func(c *config) { c.vdd = -1 }},
		{"nan vdd", func(c *config) { c.vdd = math.NaN() }},
		{"unknown corner name", func(c *config) { c.corners = "slow,bogus" }},
		{"empty corner field", func(c *config) { c.corners = "slow,,fast" }},
		{"missing vdd in pair", func(c *config) { c.corners = "125" }},
		{"extra field in pair", func(c *config) { c.corners = "125:1.2:3" }},
		{"unparsable temp in pair", func(c *config) { c.corners = "hot:1.2" }},
		{"zero vdd in pair", func(c *config) { c.corners = "125:0" }},
		{"negative vdd in pair", func(c *config) { c.corners = "125:-1.2" }},
		{"duplicate points", func(c *config) { c.corners = "slow,125:1.08" }},
	}
	for _, tcase := range bad {
		cfg := base
		tcase.mut(&cfg)
		if err := run(cfg, io.Discard); err == nil {
			t.Errorf("%s: run accepted %+v", tcase.name, cfg)
		}
	}

	var buf bytes.Buffer
	cfg := base
	cfg.corners = "slow, TYPICAL ,-40:1.32"
	cfg.statsFile = filepath.Join(t.TempDir(), "corners.json")
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"corner summary (3 corners", "slow", "typical", "T-40_V1.32", "cross-corner paths"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("corner report missing %q:\n%s", want, buf.String())
		}
	}

	// The -stats report of a sweep must carry the per-corner table and
	// the sweep-wide result summary.
	raw, err := os.ReadFile(cfg.statsFile)
	if err != nil {
		t.Fatal(err)
	}
	var sr statsReport
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if len(sr.Corners) != 3 {
		t.Fatalf("stats corners = %d, want 3", len(sr.Corners))
	}
	for i, want := range []string{"slow", "typical", "T-40_V1.32"} {
		if sr.Corners[i].Name != want {
			t.Errorf("stats corner %d = %q, want %q", i, sr.Corners[i].Name, want)
		}
	}
	if sr.Result.Paths == 0 || sr.Result.WorstDelayPs <= 0 {
		t.Errorf("sweep result summary not populated: %+v", sr.Result)
	}
	// The sweep's search counters are the sum over its corners.
	steps := int64(0)
	for _, cs := range sr.Corners {
		steps += cs.Steps
	}
	if sr.Search.SensitizationAttempts != steps {
		t.Errorf("stats search.sensitizationAttempts = %d, want the corners' sum %d", sr.Search.SensitizationAttempts, steps)
	}
}
