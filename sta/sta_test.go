package sta_test

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"tpsta/sta"
)

// TestPublicWorkflow exercises the package-level quickstart end to end:
// characterize, load a circuit, enumerate, verify, round-trip the
// library — everything a downstream user touches.
func TestPublicWorkflow(t *testing.T) {
	tc, err := sta.TechByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	if len(sta.Technologies()) != 3 {
		t.Error("expected three technologies")
	}
	lib, err := sta.Characterize(tc, sta.QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	cir, err := sta.BuiltinCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	eng := sta.NewEngine(cir, tc, lib, sta.EngineOptions{})
	res, err := eng.KWorst(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 5 {
		t.Fatalf("KWorst returned %d paths", len(res.Paths))
	}
	for _, p := range res.Paths {
		if p.WorstDelay() <= 0 {
			t.Errorf("path %s has no delay", p)
		}
		rising := p.RiseOK
		if err := sta.VerifyPath(cir, p.Nodes, p.Start, rising, p.Cube); err != nil {
			t.Errorf("verification failed: %v", err)
		}
	}

	// Library round trip.
	var buf bytes.Buffer
	if err := sta.SaveLibrary(lib, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := sta.LoadLibrary(&buf); err != nil {
		t.Fatal(err)
	}

	// Baseline comparison on the same circuit.
	base := sta.NewBaseline(cir, tc, lib, sta.BaselineOptions{})
	rep, err := base.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.True != 11 {
		t.Errorf("baseline found %d true paths on c17, want 11", rep.True)
	}
}

func TestPublicCells(t *testing.T) {
	lib := sta.CellLibrary()
	ao22, err := lib.Get("AO22")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, pin := range ao22.Inputs {
		got += len(ao22.Vectors(pin))
	}
	if got != 12 {
		t.Errorf("AO22 vectors = %d", got)
	}
	tc, _ := sta.TechByName("65nm")
	s := sta.NewSimulator(tc)
	vec := ao22.Vectors("A")[0]
	r, err := s.SimulateGate(ao22, vec, false, 40e-12, ao22.InputCap(tc, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay <= 0 {
		t.Error("no delay measured")
	}
}

func TestPublicBenchIO(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n"
	cir, err := sta.ParseBench("mini", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sta.WriteBench(&buf, cir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NAND2") {
		t.Errorf("round trip: %s", buf.String())
	}
	if len(sta.BuiltinCircuits()) != 13 {
		t.Errorf("builtin circuits: %v", sta.BuiltinCircuits())
	}
}

// TestParseBenchLateInputAndEmptyOperand pins the public .bench parser
// on two inputs it used to mishandle: a gate reading an INPUT declared
// below it parses to the circuit the declaration-first file gives, and
// an empty operand is an error naming its line.
func TestParseBenchLateInputAndEmptyOperand(t *testing.T) {
	describe := func(c *sta.Circuit) string {
		var b strings.Builder
		for _, n := range c.Inputs {
			b.WriteString("in " + n.Name + "\n")
		}
		for _, n := range c.Outputs {
			b.WriteString("out " + n.Name + "\n")
		}
		for _, g := range c.Gates {
			b.WriteString(g.Name + " = " + g.Cell.Name + "(")
			for _, pin := range g.Cell.Inputs {
				b.WriteString(g.Fanin[pin].Name + " ")
			}
			b.WriteString(")\n")
		}
		return b.String()
	}
	first := "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\nn1 = AO22(a, b, c, d)\nz = NAND(n1, c)\n"
	late := "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nn1 = AO22(a, b, c, d)\nz = NAND(n1, c)\nINPUT(d)\n"
	want, err := sta.ParseBench("first", strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sta.ParseBench("late", strings.NewReader(late))
	if err != nil {
		t.Fatalf("late INPUT rejected: %v", err)
	}
	if describe(got) != describe(want) {
		t.Errorf("late INPUT parsed to\n%swant\n%s", describe(got), describe(want))
	}
	_, err = sta.ParseBench("empty", strings.NewReader("INPUT(a)\nOUTPUT(z)\nz = NAND2(a, )\n"))
	if err == nil || !strings.Contains(err.Error(), "empty:3: empty operand") {
		t.Errorf("empty operand: error %v, want empty:3: empty operand", err)
	}
}

func TestPublicFormats(t *testing.T) {
	tc, _ := sta.TechByName("130nm")
	lib, err := sta.Characterize(tc, sta.QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	cir, err := sta.BuiltinCircuit("fig4")
	if err != nil {
		t.Fatal(err)
	}
	// Verilog round trip.
	var v bytes.Buffer
	if err := sta.WriteVerilog(&v, cir); err != nil {
		t.Fatal(err)
	}
	back, err := sta.ParseVerilog("fig4", bytes.NewReader(v.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Gates) != len(cir.Gates) {
		t.Error("verilog round trip changed gate count")
	}
	// Liberty export parses back (via the exported text's header).
	var l bytes.Buffer
	if err := sta.WriteLiberty(&l, lib); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(l.String(), "library (tpsta_130nm)") {
		t.Error("liberty header missing")
	}
	// SDF annotation.
	var s bytes.Buffer
	if err := sta.WriteSDF(&s, cir, tc, lib, sta.SDFOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "(DESIGN \"fig4\")") {
		t.Error("sdf design missing")
	}
	// Corner sweep and variation through the facade.
	eng := sta.NewEngine(cir, tc, lib, sta.EngineOptions{})
	mc, err := eng.MultiCorner(sta.CornerPoints(tc, sta.StandardCorners()))
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Corners) != 3 || len(mc.Cross) < 2 {
		t.Fatalf("corner sweep: %d corners, %d cross-corner paths", len(mc.Corners), len(mc.Cross))
	}
	va := sta.NewVariationAnalyzer(cir, tc, lib)
	if _, err := va.MonteCarlo([]*sta.TruePath{mc.Cross[0].Path, mc.Cross[1].Path}, sta.MCOptions{Samples: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExtensions(t *testing.T) {
	cir, err := sta.BuiltinCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	// Cone extraction.
	cone, err := sta.ExtractCone(cir, []string{"22"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cone.Gates) >= len(cir.Gates) {
		t.Error("cone should shrink the circuit")
	}
	// Dot output.
	var buf bytes.Buffer
	if err := sta.WriteDot(&buf, cir, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Error("dot header missing")
	}
}

// TestPublicObservability exercises the obs v2 facade surface: spans
// parenting an engine search, the metrics histogram bundle, and the
// OpenMetrics endpoint serving the engine's registered source.
func TestPublicObservability(t *testing.T) {
	cir, err := sta.BuiltinCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := sta.NewJSONLTracer(&buf)
	root := sta.StartSpan(tr, 0, "run")
	metrics := &sta.EngineMetrics{}
	eng := sta.NewEngine(cir, nil, nil, sta.EngineOptions{
		Tracer:      tr,
		TraceParent: root.ID(),
		Metrics:     metrics,
	})
	if _, err := eng.Enumerate(); err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if metrics.StepNs.Count() == 0 {
		t.Error("step histogram collected nothing")
	}
	if st := metrics.StepNs.Stat(); st.Count != metrics.StepNs.Count() {
		t.Errorf("histogram stat count %d != live count %d", st.Count, metrics.StepNs.Count())
	}
	if !strings.Contains(buf.String(), `"name":"enumerate"`) {
		t.Error("trace lacks the enumerate span")
	}

	eng.RegisterMetrics("sta.test")
	addr, err := sta.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "openmetrics-text") {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "tpsta_core_step_ns_seconds_bucket") &&
		!strings.Contains(string(body), "tpsta_core_step_ns_bucket") {
		t.Errorf("exposition lacks the step histogram:\n%s", body)
	}
	if !strings.HasSuffix(string(body), "# EOF\n") {
		t.Error("exposition does not end with # EOF")
	}
}
