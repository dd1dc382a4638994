package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"tpsta/sta"
)

// TestDigestWorkerInvariance enumerates c432 structure-only serially
// and on two workers: the path identities must hash the same.
func TestDigestWorkerInvariance(t *testing.T) {
	tc, err := sta.TechByName(techName)
	if err != nil {
		t.Fatal(err)
	}
	cir, err := sta.BuiltinCircuit("c432")
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, workers := range []int{1, 2} {
		// The technology card goes in even without a library: the
		// parallel warm-up reads load capacitances from it.
		eng := sta.NewEngine(cir, tc, nil, sta.EngineOptions{Workers: workers, MaxSteps: 600_000, MaxVariants: 50_000})
		res, err := eng.Enumerate()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Truncated || len(res.Paths) == 0 {
			t.Fatalf("workers=%d: %d paths, truncated=%v", workers, len(res.Paths), res.Truncated)
		}
		digests = append(digests, digest(res))
	}
	if digests[0] != digests[1] {
		t.Errorf("digest at 1 worker %s, at 2 workers %s", digests[0], digests[1])
	}
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// TestBenchmarkDeclaresMetrics prints every metric the harness reports
// and checks each line against BENCHMARK.json: the name is declared in
// the matching section with the same unit, and the sections hold
// nothing the harness does not print.
func TestBenchmarkDeclaresMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declaredNames []string
	for _, w := range bf.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declaredNames, ",") {
		t.Errorf("harness workloads %v, BENCHMARK.json %v", names, declaredNames)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]declared(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !valid.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
	}

	for _, section := range []struct {
		defs []metricDef
		decl []declared
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		units := map[string]string{}
		for _, d := range section.decl {
			units[d.Name] = d.Unit
		}
		values := map[string]float64{}
		for _, d := range section.defs {
			values[d.name] = 1
		}
		var out bytes.Buffer
		if err := emit(&out, "w", section.defs, values, summary{Correct: true, Attempted: 1}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not the JSON summary: %v", err)
		}
		if len(sum.Metrics) != len(section.decl) {
			t.Errorf("summary has %d metrics, BENCHMARK.json declares %d", len(sum.Metrics), len(section.decl))
		}
		for _, line := range lines[:len(lines)-1] {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("line %q is not \"workload metric value unit\"", line)
				continue
			}
			if unit, ok := units[f[1]]; !ok || unit != f[3] {
				t.Errorf("printed %s in %s, BENCHMARK.json declares %q (declared: %v)", f[1], f[3], unit, ok)
			}
		}
	}
}

// TestGoldenParses checks the embedded golden covers every workload's
// circuits.
func TestGoldenParses(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, c := range w.circuits {
			exp, ok := g.Workloads[w.name][c]
			switch {
			case !ok:
				t.Errorf("%s/%s: no golden entry", w.name, c)
			case exp.Paths == 0 || exp.WorstPs <= 0 || (w.enumerate && exp.Digest == ""):
				t.Errorf("%s/%s: no paths, worst delay or enumeration digest", w.name, c)
			}
		}
	}
}

// TestLayerTimes folds a span trace: a layer's self time excludes its
// children, and only spans directly under a query count as query
// layers.
func TestLayerTimes(t *testing.T) {
	var buf bytes.Buffer
	tr := sta.NewJSONLTracer(&buf)
	root := sta.StartSpan(tr, 0, "workload")
	setup := sta.StartSpan(tr, root.ID(), "setup")
	sta.StartSpan(tr, setup.ID(), "characterize").End()
	setup.End()
	q := sta.StartSpan(tr, root.ID(), "query")
	sta.StartSpan(tr, q.ID(), "load[c17]").End()
	sta.StartSpan(tr, q.ID(), "search[c17]").End()
	q.End()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lt, err := readLayerTimes(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lt.self["query"], lt.total["query"]-lt.total["load"]-lt.total["search"]; got != want {
		t.Errorf("query self %v, want %v", got, want)
	}
	if _, ok := lt.inQuery["characterize"]; ok {
		t.Error("set-up characterization counted as a query layer")
	}
	if lt.inQuery["search"] != lt.total["search"] {
		t.Errorf("search in query %v, total %v", lt.inQuery["search"], lt.total["search"])
	}
	values := map[string]float64{}
	lt.shares(values)
	if c := values["trace.coverage"]; c < 0 || c > 1 {
		t.Errorf("coverage %v outside [0, 1]", c)
	}
}
