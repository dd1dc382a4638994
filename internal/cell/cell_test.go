package cell

import (
	"strings"
	"testing"

	"tpsta/internal/expr"
	"tpsta/internal/logic"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

func lib(t testing.TB) *Lib {
	t.Helper()
	return Default()
}

func TestLibraryConstruction(t *testing.T) {
	l := lib(t)
	want := []string{
		"INV", "BUF", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
		"AND2", "AND3", "AND4", "OR2", "OR3", "OR4",
		"AO21", "AO22", "OA12", "OA22", "AOI21", "AOI22", "OAI12", "OAI22",
		"MAJ3", "MAJ3I", "XOR2", "XNOR2", "XOR3", "MUX2",
	}
	for _, name := range want {
		if _, err := l.Get(name); err != nil {
			t.Errorf("missing cell %s: %v", name, err)
		}
	}
	if len(l.Names()) != len(want) {
		t.Errorf("library has %d cells, want %d", len(l.Names()), len(want))
	}
	if _, err := l.Get("NAND9"); err == nil {
		t.Error("Get of unknown cell should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet of unknown cell should panic")
		}
	}()
	l.MustGet("NAND9")
}

// TestTable1AO22Vectors reproduces paper Table 1: three sensitization
// vectors per AO22 input, 12 in total, in the paper's Case order.
func TestTable1AO22Vectors(t *testing.T) {
	ao22 := lib(t).MustGet("AO22")
	wantByPin := map[string][]string{
		"A": {"B=1,C=0,D=0", "B=1,C=1,D=0", "B=1,C=0,D=1"},
		"B": {"A=1,C=0,D=0", "A=1,C=1,D=0", "A=1,C=0,D=1"},
		"C": {"A=0,B=0,D=1", "A=1,B=0,D=1", "A=0,B=1,D=1"},
		"D": {"A=0,B=0,C=1", "A=1,B=0,C=1", "A=0,B=1,C=1"},
	}
	for pin, want := range wantByPin {
		vecs := ao22.Vectors(pin)
		if len(vecs) != 3 {
			t.Fatalf("AO22 %s: %d vectors, want 3", pin, len(vecs))
		}
		for i, v := range vecs {
			if v.Key() != want[i] {
				t.Errorf("AO22 %s Case %d = %s, want %s", pin, i+1, v.Key(), want[i])
			}
			if v.Case != i+1 || v.Pin != pin {
				t.Errorf("vector metadata wrong: %+v", v)
			}
		}
	}
	// The paper's "total delay propagation values": 12 for AO22.
	total := 0
	for _, pin := range ao22.Inputs {
		total += len(ao22.Vectors(pin))
	}
	if total != 12 {
		t.Errorf("AO22 has %d vectors over its pins, want 12", total)
	}
	if !ao22.IsComplex() {
		t.Error("AO22 is complex")
	}
}

// TestTable2OA12Vectors reproduces paper Table 2: inputs A and B have a
// single vector; input C has three.
func TestTable2OA12Vectors(t *testing.T) {
	oa12 := lib(t).MustGet("OA12")
	if got := len(oa12.Vectors("A")); got != 1 {
		t.Errorf("OA12 A: %d vectors, want 1", got)
	}
	if got := oa12.Vectors("A")[0].Key(); got != "B=0,C=1" {
		t.Errorf("OA12 A vector = %s", got)
	}
	if got := oa12.Vectors("B")[0].Key(); got != "A=0,C=1" {
		t.Errorf("OA12 B vector = %s", got)
	}
	wantC := []string{"A=1,B=0", "A=0,B=1", "A=1,B=1"}
	vecs := oa12.Vectors("C")
	if len(vecs) != 3 {
		t.Fatalf("OA12 C: %d vectors, want 3", len(vecs))
	}
	for i, v := range vecs {
		if v.Key() != wantC[i] {
			t.Errorf("OA12 C Case %d = %s, want %s", i+1, v.Key(), wantC[i])
		}
	}
	if got := oa12.MultiVectorPins(); len(got) != 1 || got[0] != "C" {
		t.Errorf("OA12 MultiVectorPins = %v", got)
	}
}

func TestSimpleCellVectors(t *testing.T) {
	l := lib(t)
	// Primitive gates have exactly one vector per input (the paper's
	// contrast case).
	for _, name := range []string{"INV", "NAND2", "NAND3", "NOR2", "AND2", "OR4"} {
		c := l.MustGet(name)
		for _, pin := range c.Inputs {
			if got := len(c.Vectors(pin)); got != 1 {
				t.Errorf("%s %s: %d vectors, want 1", name, pin, got)
			}
		}
		if c.IsComplex() {
			t.Errorf("%s should not be complex", name)
		}
	}
	// XOR2 has two vectors per input (side 0 and side 1).
	x := l.MustGet("XOR2")
	for _, pin := range x.Inputs {
		if got := len(x.Vectors(pin)); got != 2 {
			t.Errorf("XOR2 %s: %d vectors, want 2", pin, got)
		}
	}
	// MAJ3: input A sensitized when B != C: two vectors.
	m := l.MustGet("MAJ3")
	if got := len(m.Vectors("A")); got != 2 {
		t.Errorf("MAJ3 A: %d vectors, want 2", got)
	}
	// Unknown pin yields nil.
	if m.Vectors("Q") != nil {
		t.Error("unknown pin should yield nil vectors")
	}
}

func TestOutputEdgeAndInverting(t *testing.T) {
	l := lib(t)
	ao22 := l.MustGet("AO22")
	v := ao22.Vectors("A")[0]
	if up, ok := ao22.OutputEdge(v, true); !ok || !up {
		t.Error("AO22 is non-inverting: rising A gives rising Z")
	}
	if down, ok := ao22.OutputEdge(v, false); !ok || down {
		t.Error("falling A gives falling Z")
	}
	if ao22.Inverting(v) {
		t.Error("AO22 not inverting")
	}
	nand := l.MustGet("NAND2")
	nv := nand.Vectors("A")[0]
	if !nand.Inverting(nv) {
		t.Error("NAND2 inverting")
	}
	if up, ok := nand.OutputEdge(nv, true); !ok || up {
		t.Error("NAND2 rising A gives falling Z")
	}
	// XOR2 with side input 1 behaves inverting; with side 0 non-inverting.
	x := l.MustGet("XOR2")
	for _, v := range x.Vectors("A") {
		if x.Inverting(v) != v.Side["B"] {
			t.Errorf("XOR2 inversion under %s wrong", v.Key())
		}
	}
}

func TestOutputEdgeMemoMatchesSlowPath(t *testing.T) {
	// Every library vector carries the OutputEdge memo; it must agree
	// with the uncached function evaluation for both input edges, and a
	// hand-built vector (no memo) must still answer via the slow path.
	l := lib(t)
	for _, c := range l.Cells() {
		for _, pin := range c.Inputs {
			for _, v := range c.Vectors(pin) {
				for _, rising := range []bool{false, true} {
					gotR, gotOK := c.OutputEdge(v, rising)
					wantR, wantOK := c.outputEdgeSlow(v, rising)
					if gotR != wantR || gotOK != wantOK {
						t.Errorf("%s/%s %s rising=%v: memo (%v,%v) vs slow (%v,%v)",
							c.Name, pin, v.Key(), rising, gotR, gotOK, wantR, wantOK)
					}
				}
			}
		}
	}
	nand := l.MustGet("NAND2")
	hand := Vector{Pin: "A", Case: 1, Side: map[string]bool{"B": true}}
	if up, ok := nand.OutputEdge(hand, true); !ok || up {
		t.Error("hand-built vector: NAND2 rising A should give falling Z")
	}
}

func TestEvalAndEvalDual(t *testing.T) {
	ao22 := lib(t).MustGet("AO22")
	env := map[string]logic.Value{
		"A": logic.VF, "B": logic.V1, "C": logic.V0, "D": logic.V0,
	}
	if got := ao22.Eval(env); got != logic.VF {
		t.Errorf("Eval = %s, want F", got)
	}
	// The dual evaluation of the search: each scenario's input Values,
	// in Inputs order, fold into one row of the cell's table.
	denv := map[string]logic.Dual{
		"A": logic.DualTransition,
		"B": {Rise: logic.V1, Fall: logic.V1},
		"C": {Rise: logic.V0, Fall: logic.V0},
		"D": {Rise: logic.V0, Fall: logic.V0},
	}
	rise, fall := 0, 0
	for _, pin := range ao22.Inputs {
		rise = Fold(rise, denv[pin].Rise)
		fall = Fold(fall, denv[pin].Fall)
	}
	if got := (logic.Dual{Rise: ao22.Table()[rise], Fall: ao22.Table()[fall]}); got.Rise != logic.VR || got.Fall != logic.VF {
		t.Errorf("dual table evaluation = %s", got)
	}
}

func TestTopologyAO22(t *testing.T) {
	ao22 := lib(t).MustGet("AO22")
	top := ao22.Topology()
	// AOI22 core: 4 nMOS + 4 pMOS; output inverter: 1 + 1. Total 10.
	if len(top.Devices) != 10 {
		t.Fatalf("AO22 has %d devices, want 10", len(top.Devices))
	}
	var n, p int
	gates := map[string]int{}
	for _, dev := range top.Devices {
		if dev.NMOS {
			n++
		} else {
			p++
		}
		gates[dev.Gate]++
	}
	if n != 5 || p != 5 {
		t.Errorf("device split %d nMOS / %d pMOS, want 5/5", n, p)
	}
	// Each input drives one nMOS and one pMOS.
	for _, pin := range ao22.Inputs {
		if gates[pin] != 2 {
			t.Errorf("pin %s drives %d gates, want 2", pin, gates[pin])
		}
	}
	// The internal core output n1 drives the output inverter pair.
	if gates["n1"] != 2 {
		t.Errorf("net n1 drives %d gates, want 2", gates["n1"])
	}
	// Z must be the last listed net.
	if top.Nets[len(top.Nets)-1] != Output {
		t.Errorf("Z not last in Nets: %v", top.Nets)
	}
	// Topology is cached.
	if ao22.Topology() != top {
		t.Error("Topology not cached")
	}
}

// TestTopologyPullStructure verifies the Fig. 2 structure: in the AOI22
// core pull-up, the A-gated pMOS is in series (through an internal node)
// with the parallel pair gated by C and D.
func TestTopologyPullStructure(t *testing.T) {
	ao22 := lib(t).MustGet("AO22")
	top := ao22.Topology()
	// Collect core pMOS devices (exclude the output inverter, whose gate
	// is n1).
	var core []Device
	for _, dev := range top.Devices {
		if !dev.NMOS && dev.Gate != "n1" {
			core = append(core, dev)
		}
	}
	if len(core) != 4 {
		t.Fatalf("core pull-up has %d devices", len(core))
	}
	// dual(AB+CD) = (A+B)(C+D): series chain of two parallel pairs. The
	// pair containing A shares both terminals with the pair containing B,
	// and connects VDD to an internal node; C/D pair connects that node to
	// the stage output n1.
	byGate := map[string]Device{}
	for _, dev := range core {
		byGate[dev.Gate] = dev
	}
	if byGate["A"].A != byGate["B"].A || byGate["A"].B != byGate["B"].B {
		t.Error("A and B pMOS should be in parallel")
	}
	if byGate["C"].A != byGate["D"].A || byGate["C"].B != byGate["D"].B {
		t.Error("C and D pMOS should be in parallel")
	}
	if byGate["A"].A != VDD {
		t.Errorf("A pair should hang from VDD, got %s", byGate["A"].A)
	}
	if byGate["C"].B != "n1" {
		t.Errorf("C pair should reach the core output n1, got %s", byGate["C"].B)
	}
	if byGate["A"].B != byGate["C"].A {
		t.Error("pairs should share the internal series node")
	}
	if !strings.HasPrefix(byGate["A"].B, "x") {
		t.Errorf("internal node name %q", byGate["A"].B)
	}
}

func TestStackCompensationSizing(t *testing.T) {
	l := lib(t)
	// NAND2: nMOS stack of 2 → WN=2; pMOS parallel → WP=1.
	nand := l.MustGet("NAND2")
	if st := nand.Stages[0]; !num.Eq(st.WN, 2) || !num.Eq(st.WP, 1) {
		t.Errorf("NAND2 sizing WN=%v WP=%v, want 2/1", st.WN, st.WP)
	}
	nor := l.MustGet("NOR2")
	if st := nor.Stages[0]; !num.Eq(st.WN, 1) || !num.Eq(st.WP, 2) {
		t.Errorf("NOR2 sizing WN=%v WP=%v, want 1/2", st.WN, st.WP)
	}
	// AOI22 core: both networks are depth-2.
	aoi := l.MustGet("AOI22")
	if st := aoi.Stages[0]; !num.Eq(st.WN, 2) || !num.Eq(st.WP, 2) {
		t.Errorf("AOI22 sizing WN=%v WP=%v, want 2/2", st.WN, st.WP)
	}
	inv := l.MustGet("INV")
	if st := inv.Stages[0]; !num.Eq(st.WN, 1) || !num.Eq(st.WP, 1) {
		t.Errorf("INV sizing WN=%v WP=%v, want 1/1", st.WN, st.WP)
	}
}

func TestInputCap(t *testing.T) {
	tc, _ := tech.ByName("130nm")
	l := lib(t)
	inv := l.MustGet("INV")
	wantInv := tc.CgOf(tc.WminN) + tc.CgOf(tc.WminP)
	if got := inv.InputCap(tc, "A"); !num.Eq(got, wantInv) {
		t.Errorf("INV input cap = %g, want %g", got, wantInv)
	}
	// NAND2 input devices are double width: cap doubles.
	nand := l.MustGet("NAND2")
	if got := nand.InputCap(tc, "A"); !num.Eq(got, 2*tc.CgOf(tc.WminN)+tc.CgOf(tc.WminP)) {
		t.Errorf("NAND2 input cap = %g", got)
	}
	// All library cells present a positive cap on every pin; MaxInputCap
	// dominates each pin.
	for _, c := range l.Cells() {
		max := c.MaxInputCap(tc)
		for _, pin := range c.Inputs {
			got := c.InputCap(tc, pin)
			if got <= 0 {
				t.Errorf("%s %s: non-positive input cap", c.Name, pin)
			}
			if got > max {
				t.Errorf("%s: MaxInputCap below pin %s", c.Name, pin)
			}
		}
	}
}

// TestAllCellsStageConsistency re-checks every cell's stage chain against
// its function over all input assignments (checkStages runs at build time;
// this asserts the library actually built and stays consistent).
func TestAllCellsStageConsistency(t *testing.T) {
	for _, c := range lib(t).Cells() {
		if err := c.checkStages(); err != nil {
			t.Error(err)
		}
		// Every stage PD must be series/parallel (unate).
		for _, st := range c.Stages {
			if !expr.IsUnate(st.PD) {
				t.Errorf("%s: stage PD %s is not series/parallel", c.Name, st.PD)
			}
		}
		// Final stage drives Z.
		if c.Stages[len(c.Stages)-1].Out != Output {
			t.Errorf("%s: last stage drives %s", c.Name, c.Stages[len(c.Stages)-1].Out)
		}
	}
}

// TestVectorsPropagateProperty checks, for every cell, pin and vector,
// that evaluating the cell with the vector's side values and a transition
// on the pin yields a transition at the output — i.e. the enumerated
// vectors all really sensitize — and that assignments not enumerated do
// not propagate.
func TestVectorsPropagateProperty(t *testing.T) {
	for _, c := range lib(t).Cells() {
		for _, pin := range c.Inputs {
			vecs := c.Vectors(pin)
			keys := map[string]bool{}
			for _, v := range vecs {
				keys[v.Key()] = true
				for _, rising := range []bool{true, false} {
					if _, ok := c.OutputEdge(v, rising); !ok {
						t.Errorf("%s %s %s: vector does not propagate", c.Name, pin, v.Key())
					}
				}
			}
			// Exhaustively try all side assignments; those not enumerated
			// must block the transition.
			var side []string
			for _, p := range c.Inputs {
				if p != pin {
					side = append(side, p)
				}
			}
			for r := 0; r < 1<<len(side); r++ {
				v := Vector{Pin: pin, Side: map[string]bool{}}
				for i, name := range side {
					v.Side[name] = r>>i&1 == 1
				}
				_, ok := c.OutputEdge(v, true)
				if ok != keys[v.Key()] {
					t.Errorf("%s %s side %s: propagate=%v enumerated=%v",
						c.Name, pin, v.Key(), ok, keys[v.Key()])
				}
			}
		}
	}
}

func TestVectorStringAndCache(t *testing.T) {
	ao22 := Default().MustGet("AO22")
	v := ao22.Vectors("A")[0]
	if got := v.String(); got != "A[1]: B=1,C=0,D=0" {
		t.Errorf("String = %q", got)
	}
	// Cached slice identity.
	if &ao22.Vectors("A")[0] != &ao22.Vectors("A")[0] {
		t.Error("Vectors not cached")
	}
}
