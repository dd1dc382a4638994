package netlist

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// c17Bench is the original ISCAS-85 c17 netlist (public benchmark).
const c17Bench = `
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func parseC17(t *testing.T) *Circuit {
	t.Helper()
	c, err := ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseBenchC17(t *testing.T) {
	c := parseC17(t)
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 || len(c.Gates) != 6 {
		t.Fatalf("c17 shape: %d/%d/%d", len(c.Inputs), len(c.Outputs), len(c.Gates))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth != 3 {
		t.Errorf("c17 depth = %d, want 3", st.Depth)
	}
	if st.ComplexGates != 0 {
		t.Errorf("c17 has no complex gates, got %d", st.ComplexGates)
	}
	// Known truth: with all inputs 1, NAND(1,3)=0, 11=0, 16=1, 19=1,
	// 22=NAND(0,1)=1, 23=NAND(1,1)=0.
	vals, err := c.EvalBool(map[string]bool{"1": true, "2": true, "3": true, "6": true, "7": true})
	if err != nil {
		t.Fatal(err)
	}
	if !vals["22"] || vals["23"] {
		t.Errorf("c17 eval: 22=%v 23=%v", vals["22"], vals["23"])
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"garbage line", "INPUT(a)\nOUTPUT(b)\nwhat is this"},
		{"unknown gate", "INPUT(a)\nOUTPUT(b)\nb = FROB(a)"},
		{"double drive", "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\nb = NOT(a)"},
		{"drive an input", "INPUT(a)\nINPUT(b)\nOUTPUT(b)\nb = NOT(a)"},
		{"undriven net", "INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)"},
		{"NOT arity", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(a, b)"},
		{"empty operand", "INPUT(a)\nOUTPUT(z)\nz = AND(a, )"},
		{"no outputs", "INPUT(a)\nz = NOT(a)"},
		{"malformed gate", "INPUT(a)\nOUTPUT(z)\nz = NOT a"},
	}
	for _, c := range cases {
		if _, err := ParseBench(c.name, strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestWideGateDecomposition(t *testing.T) {
	src := `
INPUT(a) INPUT(b)
OUTPUT(z)
`
	// Build the netlist programmatically instead: 9-input NAND.
	_ = src
	in := "INPUT(i0)\nINPUT(i1)\nINPUT(i2)\nINPUT(i3)\nINPUT(i4)\nINPUT(i5)\nINPUT(i6)\nINPUT(i7)\nINPUT(i8)\nOUTPUT(z)\nz = NAND(i0,i1,i2,i3,i4,i5,i6,i7,i8)\n"
	c, err := ParseBench("wide", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// 9 inputs → groups of 4,4,1 → AND4+AND4 + final NAND3.
	counts := cellCounts(c)
	if counts["AND4"] != 2 || counts["NAND3"] != 1 {
		t.Errorf("decomposition counts: %v", counts)
	}
	// Function check: NAND of all ones is 0; any zero input gives 1.
	all := map[string]bool{}
	for _, n := range c.Inputs {
		all[n.Name] = true
	}
	vals, _ := c.EvalBool(all)
	if vals["z"] {
		t.Error("NAND9(1...1) should be 0")
	}
	all["i5"] = false
	vals, _ = c.EvalBool(all)
	if !vals["z"] {
		t.Error("NAND9 with a zero should be 1")
	}
}

func TestXorChainDecomposition(t *testing.T) {
	in := "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\nz = XNOR(a,b,c,d)\n"
	c, err := ParseBench("xnor4", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	counts := cellCounts(c)
	if counts["XOR2"] != 2 || counts["XNOR2"] != 1 {
		t.Errorf("xnor decomposition: %v", counts)
	}
	// Parity check over a few assignments.
	for r := 0; r < 16; r++ {
		env := map[string]bool{
			"a": r&1 != 0, "b": r&2 != 0, "c": r&4 != 0, "d": r&8 != 0,
		}
		parity := env["a"] != env["b"]
		parity = parity != env["c"]
		parity = parity != env["d"]
		vals, _ := c.EvalBool(env)
		if vals["z"] != !parity {
			t.Fatalf("xnor4 wrong at %v", env)
		}
	}
}

func TestTopoAndLevels(t *testing.T) {
	c := parseC17(t)
	topo, err := c.TopoGates()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, g := range topo {
		for _, pin := range g.Cell.Inputs {
			if d := g.Fanin[pin].Driver; d != nil && !seen[d.ID] {
				t.Fatalf("gate %s before its fanin %s", g.Name, d.Name)
			}
		}
		seen[g.ID] = true
	}
	lv, depth, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if depth != 3 {
		t.Errorf("depth %d", depth)
	}
	if lv[c.Node("10").Driver.ID] != 1 || lv[c.Node("22").Driver.ID] != 3 {
		t.Errorf("levels wrong: %v", lv)
	}
}

func TestLoadCap(t *testing.T) {
	c := parseC17(t)
	tc, _ := tech.ByName("130nm")
	// Net 11 fans out to gates 16 and 19 (two NAND2 pins).
	n11 := c.Node("11")
	nand := cell.Default().MustGet("NAND2")
	want := tc.Cw + nand.InputCap(tc, "B") + nand.InputCap(tc, "A")
	if got := c.LoadCap(n11, tc); !num.Eq(got, want) {
		t.Errorf("LoadCap(11) = %g, want %g", got, want)
	}
	// Output net 22 adds the default output load.
	n22 := c.Node("22")
	if got := c.LoadCap(n22, tc); !num.Eq(got, tc.Cw+DefaultOutputLoad(tc)) {
		t.Errorf("LoadCap(22) = %g", got)
	}
}

func TestWriteAndReparse(t *testing.T) {
	c := parseC17(t)
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("c17", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if len(c2.Gates) != len(c.Gates) || len(c2.Inputs) != len(c.Inputs) {
		t.Error("round trip changed shape")
	}
	// Same function on random vectors.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		env := map[string]bool{}
		for _, n := range c.Inputs {
			env[n.Name] = r.Intn(2) == 1
		}
		v1, _ := c.EvalBool(env)
		v2, _ := c2.EvalBool(env)
		for _, o := range c.Outputs {
			if v1[o.Name] != v2[o.Name] {
				t.Fatalf("round trip changed function at %v", env)
			}
		}
	}
}

// aoiFixture builds OR2(AND2(a,b), AND2(c,d)) plus an extra consumer knob.
func aoiFixture(t *testing.T, shareAnd bool) *Circuit {
	t.Helper()
	lib := cell.Default()
	c := New("fix")
	for _, in := range []string{"a", "b", "cc", "d"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	mustGate := func(cellName, out string, pins map[string]string) {
		if _, err := c.AddGate(lib, cellName, out, pins); err != nil {
			t.Fatal(err)
		}
	}
	mustGate("AND2", "p", map[string]string{"A": "a", "B": "b"})
	mustGate("AND2", "q", map[string]string{"A": "cc", "B": "d"})
	mustGate("OR2", "z", map[string]string{"A": "p", "B": "q"})
	c.MarkOutput("z")
	if shareAnd {
		// Give p a second consumer so it cannot be absorbed.
		mustGate("INV", "w", map[string]string{"A": "p"})
		c.MarkOutput("w")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTechMapAO22(t *testing.T) {
	c := aoiFixture(t, false)
	mapped, stats, err := TechMap(c, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rewrites["AO22"] != 1 {
		t.Errorf("rewrites: %v", stats.Rewrites)
	}
	if len(mapped.Gates) != 1 || mapped.Gates[0].Cell.Name != "AO22" {
		t.Fatalf("mapped gates: %v", cellCounts(mapped))
	}
	// The original circuit is untouched.
	if len(c.Gates) != 3 {
		t.Error("TechMap mutated its input")
	}
}

func TestTechMapRespectsFanout(t *testing.T) {
	c := aoiFixture(t, true)
	mapped, stats, err := TechMap(c, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	// p has two consumers → only q is absorbable → AO21, not AO22.
	if stats.Rewrites["AO22"] != 0 || stats.Rewrites["AO21"] != 1 {
		t.Errorf("rewrites: %v", stats.Rewrites)
	}
	counts := cellCounts(mapped)
	if counts["AND2"] != 1 || counts["AO21"] != 1 || counts["INV"] != 1 {
		t.Errorf("mapped counts: %v", counts)
	}
}

func TestTechMapPreservesFunction(t *testing.T) {
	// A mixed netlist exercising several rules at once.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(z1)
OUTPUT(z2)
OUTPUT(z3)
t1 = AND(a, b)
t2 = AND(c, d)
t3 = OR(t1, t2)
t4 = OR(a, c)
t5 = AND(t4, e)
z1 = NAND(t3, t5)
t6 = XOR(a, b)
z2 = XOR(t6, c)
t7 = OR(d, e)
t8 = OR(b, c)
t9 = AND(t7, t8)
z3 = NOT(t9)
`
	c, err := ParseBench("mixed", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	mapped, stats, err := TechMap(c, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rewrites["AO22"] == 0 || stats.Rewrites["OA12"] == 0 || stats.Rewrites["XOR3"] == 0 || stats.Rewrites["OA22"] == 0 {
		t.Errorf("expected AO22/OA12/XOR3/OA22 rewrites, got %v", stats.Rewrites)
	}
	if stats.GatesAfter >= stats.GatesBefore {
		t.Errorf("mapping should shrink the netlist: %d → %d", stats.GatesBefore, stats.GatesAfter)
	}
	// Exhaustive equivalence over all 32 input assignments.
	ins := []string{"a", "b", "c", "d", "e"}
	for r := 0; r < 32; r++ {
		env := map[string]bool{}
		for i, name := range ins {
			env[name] = r>>i&1 == 1
		}
		v1, err1 := c.EvalBool(env)
		v2, err2 := mapped.EvalBool(env)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for _, o := range c.Outputs {
			if v1[o.Name] != v2[o.Name] {
				t.Fatalf("function changed at %v: output %s", env, o.Name)
			}
		}
	}
	// Mapped circuit now contains complex gates with multi-vector arcs.
	st, err := mapped.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ComplexGates == 0 || st.MultiVectorArcs == 0 {
		t.Errorf("no complex gates after mapping: %+v", st)
	}
}

func TestAddGateErrors(t *testing.T) {
	lib := cell.Default()
	c := New("err")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate(lib, "INV", "a", map[string]string{"A": "a"}); err == nil {
		t.Error("driving an input should fail")
	}
	if _, err := c.AddGate(lib, "INV", "z", map[string]string{"B": "a"}); err == nil {
		t.Error("wrong pin name should fail")
	}
	if _, err := c.AddGate(lib, "NAND2", "z", map[string]string{"A": "a"}); err == nil {
		t.Error("missing pin should fail")
	}
	if _, err := c.AddGate(lib, "NOCELL", "z", map[string]string{"A": "a"}); err == nil {
		t.Error("unknown cell should fail")
	}
	// Re-adding an existing non-input net as input fails.
	if _, err := c.AddGate(lib, "INV", "z", map[string]string{"A": "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInput("z"); err == nil {
		t.Error("AddInput over driven net should fail")
	}
	// Idempotent AddInput.
	if _, err := c.AddInput("a"); err != nil {
		t.Error("re-adding same input should be fine")
	}
}

// cellCounts returns the instance count of each cell in c.
func cellCounts(c *Circuit) map[string]int {
	out := map[string]int{}
	for _, g := range c.Gates {
		out[g.Cell.Name]++
	}
	return out
}

func TestGatePinOf(t *testing.T) {
	c := parseC17(t)
	g := c.Node("16").Driver
	if pin := g.PinOf(c.Node("2")); pin != "A" {
		t.Errorf("PinOf(2) = %s", pin)
	}
	if pin := g.PinOf(c.Node("7")); pin != "" {
		t.Errorf("PinOf(7) = %q, want empty", pin)
	}
	if g.Fanin["B"] != c.Node("11") {
		t.Error("Fanin[B] wrong")
	}
}

func TestCycleDetection(t *testing.T) {
	lib := cell.Default()
	c := New("cyc")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate(lib, "NAND2", "x", map[string]string{"A": "a", "B": "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate(lib, "NAND2", "y", map[string]string{"A": "a", "B": "x"}); err != nil {
		t.Fatal(err)
	}
	c.MarkOutput("y")
	if err := c.Check(); err == nil {
		t.Error("cycle should be detected")
	}
}

func TestWriteMappedCircuitRoundTrip(t *testing.T) {
	// A mapped circuit (containing complex cells) must round-trip through
	// the extended bench dialect with its function intact.
	c := aoiFixture(t, false)
	mapped, _, err := TechMap(c, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, mapped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AO22") {
		t.Fatalf("complex cell not written: %s", buf.String())
	}
	back, err := ParseBench("fix", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		env := map[string]bool{
			"a": r&1 != 0, "b": r&2 != 0, "cc": r&4 != 0, "d": r&8 != 0,
		}
		v1, _ := mapped.EvalBool(env)
		v2, _ := back.EvalBool(env)
		if v1["z"] != v2["z"] {
			t.Fatalf("round trip changed function at %v", env)
		}
	}
}

func TestExtendedBenchArityErrors(t *testing.T) {
	bad := "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AO22(a, b)\n"
	if _, err := ParseBench("bad", strings.NewReader(bad)); err == nil {
		t.Error("AO22 with 2 inputs should fail")
	}
	malformed := "INPUT(a)\nOUTPUT(z)\nz = INV a\n"
	if _, err := ParseBench("bad2", strings.NewReader(malformed)); err == nil {
		t.Error("malformed line should fail")
	}
}

// TestPropertyTechMapEquivalenceRandom: random generated circuits are
// logically unchanged by the mapper (spot vectors).
func TestPropertyTechMapEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	src := "INPUT(x0)\nINPUT(x1)\nINPUT(x2)\nINPUT(x3)\nINPUT(x4)\nOUTPUT(y0)\nOUTPUT(y1)\n" +
		"t1 = AND(x0, x1)\nt2 = AND(x2, x3)\nt3 = OR(t1, t2)\n" +
		"t4 = OR(x1, x4)\nt5 = OR(x0, x3)\nt6 = AND(t4, t5)\n" +
		"y0 = NOR(t3, x4)\ny1 = NAND(t6, t3)\n"
	c, err := ParseBench("rnd", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	mapped, _, err := TechMap(c, cell.Default())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		env := map[string]bool{}
		for _, in := range c.Inputs {
			env[in.Name] = r.Intn(2) == 1
		}
		v1, _ := c.EvalBool(env)
		v2, _ := mapped.EvalBool(env)
		for _, o := range c.Outputs {
			if v1[o.Name] != v2[o.Name] {
				t.Fatalf("mapper changed function at %v", env)
			}
		}
	}
}

func TestExtractCone(t *testing.T) {
	c := parseC17(t)
	cone, err := ExtractCone(c, cell.Default(), []string{"22"})
	if err != nil {
		t.Fatal(err)
	}
	// Output 22's cone: gates 10, 11, 16, 22 over inputs 1, 2, 3, 6.
	if len(cone.Gates) != 4 {
		t.Errorf("cone gates = %d, want 4", len(cone.Gates))
	}
	if len(cone.Inputs) != 4 {
		t.Errorf("cone inputs = %d, want 4 (input 7 excluded)", len(cone.Inputs))
	}
	if cone.Node("7") != nil {
		t.Error("input 7 should not be in the cone")
	}
	if cone.Node("19") != nil {
		t.Error("gate 19 should not be in the cone")
	}
	// Function preserved on the shared inputs.
	for r := 0; r < 16; r++ {
		env := map[string]bool{
			"1": r&1 != 0, "2": r&2 != 0, "3": r&4 != 0, "6": r&8 != 0,
		}
		full := map[string]bool{"7": false}
		for k, v := range env {
			full[k] = v
		}
		v1, _ := c.EvalBool(full)
		v2, _ := cone.EvalBool(env)
		if v1["22"] != v2["22"] {
			t.Fatalf("cone changed function at %v", env)
		}
	}
	// Errors.
	if _, err := ExtractCone(c, cell.Default(), []string{"nope"}); err == nil {
		t.Error("unknown output should fail")
	}
}
