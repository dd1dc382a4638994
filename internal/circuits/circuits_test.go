package circuits

import (
	"math/rand"
	"testing"

	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// multiplierOutputs returns the product bit nets of a circuit built by
// Multiplier, LSB first (the circuit's output order).
func multiplierOutputs(c *netlist.Circuit) []string {
	out := make([]string, len(c.Outputs))
	for i, n := range c.Outputs {
		out[i] = n.Name
	}
	return out
}

func TestRegistryNames(t *testing.T) {
	if len(Names()) != 13 {
		t.Errorf("registry has %d circuits: %v", len(Names()), Names())
	}
	if len(ISCASNames()) != 11 {
		t.Errorf("ISCAS list: %v", ISCASNames())
	}
	if _, err := Get("c9999"); err == nil {
		t.Error("unknown circuit should fail")
	}
}

func TestC17Exact(t *testing.T) {
	c, err := Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 || len(c.Gates) != 6 {
		t.Fatalf("c17 shape %d/%d/%d", len(c.Inputs), len(c.Outputs), len(c.Gates))
	}
	counts := map[string]int{}
	for _, g := range c.Gates {
		counts[g.Cell.Name]++
	}
	if counts["NAND2"] != 6 {
		t.Errorf("c17 cells: %v", counts)
	}
	// Cached.
	c2, _ := Get("c17")
	if c2 != c {
		t.Error("Get should cache")
	}
}

func TestFig4Structure(t *testing.T) {
	c, err := Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 7 || len(c.Outputs) != 1 {
		t.Fatalf("fig4 shape %d/%d", len(c.Inputs), len(c.Outputs))
	}
	// The critical path exists: each named node drives the next.
	path := Fig4CriticalPath()
	for i := 0; i+1 < len(path); i++ {
		from, to := c.Node(path[i]), c.Node(path[i+1])
		if from == nil || to == nil {
			t.Fatalf("missing path node %s or %s", path[i], path[i+1])
		}
		found := false
		for _, ref := range from.Fanout {
			if ref.Gate.Out == to {
				found = true
			}
		}
		if !found {
			t.Errorf("%s does not feed %s", path[i], path[i+1])
		}
	}
	// n11 is the AO22 and the path enters via pin A.
	g := c.Node("n11").Driver
	if g.Cell.Name != "AO22" {
		t.Fatalf("n11 driven by %s", g.Cell.Name)
	}
	if g.PinOf(c.Node("n10")) != "A" {
		t.Errorf("path enters AO22 via %s", g.PinOf(c.Node("n10")))
	}
}

// TestFig4Vectors verifies the two Table 5 vectors both sensitize the
// critical path, with the AO22 seeing Case 1 under the easy vector and
// Case 2 under the hard one.
func TestFig4Vectors(t *testing.T) {
	c, err := Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	eval := func(n6, n7 logic.Value) map[string]logic.Value {
		vals := map[string]logic.Value{
			"N1": logic.VF, "N2": logic.V1, "N3": logic.V1, "N4": logic.V1,
			"N5": logic.V1, "N6": n6, "N7": n7,
		}
		topo, err := c.TopoGates()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range topo {
			env := map[string]logic.Value{}
			for _, pin := range g.Cell.Inputs {
				env[pin] = vals[g.Fanin[pin].Name]
			}
			vals[g.Out.Name] = g.Cell.Eval(env)
		}
		return vals
	}
	// Easy vector: N6=0, N7 undetermined — transition still reaches N20.
	easy := eval(logic.V0, logic.VX)
	if v := easy["N20"]; v != logic.VR && v != logic.VF {
		t.Errorf("easy vector: N20 = %s", easy["N20"])
	}
	if easy["n13"] != logic.V0 || easy["n14"] != logic.V0 {
		t.Errorf("easy vector should give AO22 C=0 D=0: %s %s", easy["n13"], easy["n14"])
	}
	// Hard vector: N6=1, N7=0 → C=1, D=0 (AO22 Case 2).
	hard := eval(logic.V1, logic.V0)
	if v := hard["N20"]; v != logic.VR && v != logic.VF {
		t.Errorf("hard vector: N20 = %s", hard["N20"])
	}
	if hard["n13"] != logic.V1 || hard["n14"] != logic.V0 {
		t.Errorf("hard vector should give AO22 C=1 D=0: %s %s", hard["n13"], hard["n14"])
	}
}

func TestMultiplierCorrectness(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		c, err := Multiplier("mult", n)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 1<<n; a++ {
			for b := 0; b < 1<<n; b++ {
				env := map[string]bool{}
				for i := 0; i < n; i++ {
					env["a"+itoa(i)] = a>>i&1 == 1
					env["b"+itoa(i)] = b>>i&1 == 1
				}
				vals, err := c.EvalBool(env)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for i, net := range multiplierOutputs(c) {
					if vals[net] {
						got |= 1 << i
					}
				}
				if got != a*b {
					t.Fatalf("%d-bit mult: %d*%d = %d, got %d", n, a, b, a*b, got)
				}
			}
		}
	}
}

func itoa(i int) string { return string(rune('0' + i%10)) }

func TestC6288Shape(t *testing.T) {
	c, err := Get("c6288")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 32 || len(c.Outputs) != 32 {
		t.Fatalf("c6288 I/O %d/%d", len(c.Inputs), len(c.Outputs))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 256 AND2 partial products + ~(n²−n) adders × 2 cells ≈ 736 cells;
	// depth dominated by the ripple rows.
	if st.Gates < 600 || st.Gates > 900 {
		t.Errorf("c6288 gate count %d", st.Gates)
	}
	if st.Depth < 20 {
		t.Errorf("c6288 depth %d too shallow", st.Depth)
	}
	if st.ComplexGates == 0 {
		t.Error("c6288 should contain complex cells (XOR3/MAJ3)")
	}
	// 16-bit spot checks against integer products.
	r := rand.New(rand.NewSource(6288))
	for k := 0; k < 10; k++ {
		a := r.Intn(1 << 16)
		b := r.Intn(1 << 16)
		env := map[string]bool{}
		for i := 0; i < 16; i++ {
			env["a"+itoaN(i)] = a>>i&1 == 1
			env["b"+itoaN(i)] = b>>i&1 == 1
		}
		vals, err := c.EvalBool(env)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for i, net := range multiplierOutputs(c) {
			if vals[net] {
				got |= 1 << i
			}
		}
		if got != a*b {
			t.Fatalf("c6288: %d*%d = %d, got %d", a, b, a*b, got)
		}
	}
}

func itoaN(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestSECShapes(t *testing.T) {
	c499, err := Get("c499")
	if err != nil {
		t.Fatal(err)
	}
	c1355, err := Get("c1355")
	if err != nil {
		t.Fatal(err)
	}
	if len(c499.Inputs) != 41 || len(c499.Outputs) != 32 {
		t.Errorf("c499 I/O %d/%d", len(c499.Inputs), len(c499.Outputs))
	}
	if len(c1355.Inputs) != 41 || len(c1355.Outputs) != 32 {
		t.Errorf("c1355 I/O %d/%d", len(c1355.Inputs), len(c1355.Outputs))
	}
	// c1355 is the NAND expansion of c499: strictly more gates, same
	// function.
	if len(c1355.Gates) <= len(c499.Gates) {
		t.Errorf("c1355 (%d gates) should exceed c499 (%d)", len(c1355.Gates), len(c499.Gates))
	}
	r := rand.New(rand.NewSource(499))
	for k := 0; k < 30; k++ {
		env := map[string]bool{}
		for _, in := range c499.Inputs {
			env[in.Name] = r.Intn(2) == 1
		}
		v1, err1 := c499.EvalBool(env)
		v2, err2 := c1355.EvalBool(env)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for _, o := range c499.Outputs {
			if v1[o.Name] != v2[o.Name] {
				t.Fatalf("c499/c1355 disagree at output %s", o.Name)
			}
		}
	}
	// With no error (syndromes 0) and ce=1, outputs echo the data bits...
	// only when no AND3 pattern fires; verify the specific all-zero case.
	env := map[string]bool{}
	for _, in := range c499.Inputs {
		env[in.Name] = false
	}
	env["ce"] = true
	vals, _ := c499.EvalBool(env)
	for i := 0; i < 32; i++ {
		if vals["z"+itoaN(i)] {
			t.Errorf("all-zero input should give zero outputs (z%d)", i)
		}
	}
}

func TestGeneratedProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"c432", "c880", "c2670"} {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][3]int{ // inputs, outputs, gates target
			"c432": {36, 7, 160}, "c880": {60, 26, 383}, "c2670": {233, 140, 1193},
		}[name]
		if st.Inputs != want[0] {
			t.Errorf("%s inputs %d, want %d", name, st.Inputs, want[0])
		}
		if st.Outputs < want[1] {
			t.Errorf("%s outputs %d, want >= %d", name, st.Outputs, want[1])
		}
		// Mapper fusions and output merging move the count; stay within
		// ±35 % of the published figure.
		lo, hi := want[2]*65/100, want[2]*135/100
		if st.Gates < lo || st.Gates > hi {
			t.Errorf("%s gates %d outside [%d,%d]", name, st.Gates, lo, hi)
		}
		if st.ComplexGates == 0 || st.MultiVectorArcs == 0 {
			t.Errorf("%s has no complex gates after mapping", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{"det", 10, 4, 50, 8, 42}
	c1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Gates) != len(c2.Gates) || len(c1.Nodes) != len(c2.Nodes) {
		t.Fatal("generation not deterministic in shape")
	}
	for i := range c1.Gates {
		if c1.Gates[i].Cell.Name != c2.Gates[i].Cell.Name || c1.Gates[i].Out.Name != c2.Gates[i].Out.Name {
			t.Fatal("generation not deterministic in content")
		}
	}
	// Different seed differs.
	p.Seed = 43
	c3, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c3.Gates) == len(c1.Gates)
	if same {
		for i := range c1.Gates {
			if c1.Gates[i].Cell.Name != c3.Gates[i].Cell.Name {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds gave identical circuits")
	}
}

func TestGenerateBadProfiles(t *testing.T) {
	for _, p := range []Profile{
		{"x", 0, 1, 10, 3, 1},
		{"x", 4, 0, 10, 3, 1},
		{"x", 4, 2, 0, 3, 1},
		{"x", 4, 2, 10, 0, 1},
	} {
		if _, err := Generate(p); err == nil {
			t.Errorf("profile %+v should fail", p)
		}
	}
}

func TestGenerateDepthRealized(t *testing.T) {
	p := Profile{"deep", 12, 5, 120, 15, 7}
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	_, depth, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Mapping can shorten chains; require at least ~2/3 of target depth.
	if depth < p.Depth*2/3 {
		t.Errorf("depth %d well below target %d", depth, p.Depth)
	}
}
