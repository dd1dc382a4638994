package block

import (
	"math"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/netlist"
	"tpsta/internal/tech"
)

var cachedLib *charlib.Library

func lib130(t testing.TB) (*tech.Tech, *charlib.Library) {
	t.Helper()
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	if cachedLib == nil {
		l, err := charlib.Characterize(tc, cell.Default(), charlib.TestGrid(), charlib.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cachedLib = l
	}
	return tc, cachedLib
}

func analyze(t *testing.T, name string, opts Options) (*Report, *Analyzer) {
	t.Helper()
	tc, lib := lib130(t)
	cir, err := circuits.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	a := New(cir, tc, lib, opts)
	rep, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, a
}

func TestArrivalMonotoneAlongTopology(t *testing.T) {
	rep, a := analyze(t, "c17", Options{})
	// Each gate output arrives strictly after each of its fanins.
	for _, g := range a.Circuit.Gates {
		out := rep.Nodes[g.Out.Name]
		for _, pin := range g.Cell.Inputs {
			in := rep.Nodes[g.Fanin[pin].Name]
			if out.Arrival <= in.Arrival {
				t.Errorf("gate %s: output arrival %g <= fanin %g", g.Name, out.Arrival, in.Arrival)
			}
		}
	}
	if rep.WorstOutput != "22" && rep.WorstOutput != "23" {
		t.Errorf("worst output %s", rep.WorstOutput)
	}
	if rep.WorstArrival <= 0 {
		t.Error("no worst arrival")
	}
}

func TestCriticalCourseIsRealPath(t *testing.T) {
	rep, a := analyze(t, "c432", Options{})
	course := rep.CriticalCourse(a.Circuit)
	if len(course) < 2 {
		t.Fatalf("course: %v", course)
	}
	if !a.Circuit.Node(course[0]).IsInput {
		t.Errorf("course starts at %s", course[0])
	}
	if course[len(course)-1] != rep.WorstOutput {
		t.Errorf("course ends at %s, want %s", course[len(course)-1], rep.WorstOutput)
	}
	for i := 0; i+1 < len(course); i++ {
		next := a.Circuit.Node(course[i+1])
		if next.Driver.PinOf(a.Circuit.Node(course[i])) == "" {
			t.Fatalf("%s does not feed %s", course[i], course[i+1])
		}
	}
}

// TestUpperBoundsTruePaths asserts the soundness property: the block
// arrival bound dominates every true-path delay the path engine reports.
func TestUpperBoundsTruePaths(t *testing.T) {
	rep, a := analyze(t, "fig4", Options{})
	eng := core.New(a.Circuit, a.Tech, a.Lib, core.Options{})
	res, err := eng.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) == 0 {
		t.Fatal("no true paths")
	}
	for _, p := range res.Paths {
		if p.WorstDelay() > rep.WorstArrival*1.0000001 {
			t.Errorf("true path %s delay %g exceeds block bound %g", p, p.WorstDelay(), rep.WorstArrival)
		}
		// Per-output bound too.
		out := p.Nodes[len(p.Nodes)-1]
		if nt := rep.Nodes[out]; p.WorstDelay() > nt.Arrival*1.0000001 {
			t.Errorf("path into %s exceeds its arrival bound", out)
		}
	}
}

func TestSlacksWithClock(t *testing.T) {
	repFree, _ := analyze(t, "c17", Options{})
	period := repFree.WorstArrival * 1.25
	rep, a := analyze(t, "c17", Options{ClockPeriod: period})
	if math.IsInf(rep.WorstSlack, 1) {
		t.Fatal("no slack computed")
	}
	if rep.WorstSlack <= 0 {
		t.Errorf("slack %g should be positive with 25%% margin", rep.WorstSlack)
	}
	// Tight clock → negative slack.
	repTight, _ := analyze(t, "c17", Options{ClockPeriod: repFree.WorstArrival * 0.5})
	if repTight.WorstSlack >= 0 {
		t.Errorf("tight clock slack %g should be negative", repTight.WorstSlack)
	}
	// The worst-slack list leads with nodes on the critical course.
	worst := rep.WorstNodes(3)
	if len(worst) != 3 {
		t.Fatalf("WorstNodes: %v", worst)
	}
	course := rep.CriticalCourse(a.Circuit)
	onCourse := map[string]bool{}
	for _, n := range course {
		onCourse[n] = true
	}
	if !onCourse[worst[0]] {
		t.Errorf("worst-slack node %s not on the critical course %v", worst[0], course)
	}
}

func TestPessimismVsTruePath(t *testing.T) {
	// On fig4 the block bound must exceed the worst true path (the block
	// abstraction takes worst vectors per arc, realizable or not).
	rep, a := analyze(t, "fig4", Options{})
	eng := core.New(a.Circuit, a.Tech, a.Lib, core.Options{})
	res, err := eng.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	worstTrue := 0.0
	for _, p := range res.Paths {
		if p.WorstDelay() > worstTrue {
			worstTrue = p.WorstDelay()
		}
	}
	if rep.WorstArrival < worstTrue {
		t.Fatalf("bound %g below worst true %g", rep.WorstArrival, worstTrue)
	}
	pessimism := (rep.WorstArrival - worstTrue) / worstTrue
	t.Logf("block pessimism over true-path analysis: %.1f%%", pessimism*100)
}

func TestDriveVariantsAndECO(t *testing.T) {
	tcTech, _ := tech.ByName("130nm")
	ext := cell.Extended()
	// X2 cells exist, share functions, and double the input capacitance.
	base := ext.MustGet("NAND2")
	x2 := ext.MustGet("NAND2" + cell.DriveSuffix)
	if len(x2.Inputs) != len(base.Inputs) {
		t.Fatal("pin mismatch")
	}
	if got, want := x2.InputCap(tcTech, "A"), 2*base.InputCap(tcTech, "A"); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("X2 input cap %g, want %g", got, want)
	}
	for _, pin := range base.Inputs {
		if len(x2.Vectors(pin)) != len(base.Vectors(pin)) {
			t.Errorf("pin %s: vector enumeration changed by upsizing", pin)
		}
	}
	if cell.BaseName(x2.Name) != "NAND2" || !cell.IsUpsized(x2.Name) || cell.IsUpsized(base.Name) {
		t.Error("name helpers")
	}
}

// TestIncrementalMatchesFullRun: resize gates on the critical course of
// c432 and check the incremental update agrees with a full re-analysis.
func TestIncrementalMatchesFullRun(t *testing.T) {
	tcTech, _ := tech.ByName("130nm")
	ext := cell.Extended()
	// Characterize the extended library once (test grid) so X2 arcs exist.
	extLib, err := charlib.Characterize(tcTech, ext, charlib.TestGrid(), charlib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cir, err := circuits.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	// Work on a clone: ReplaceCell mutates.
	cir, err = netlist.Clone(cir, ext)
	if err != nil {
		t.Fatal(err)
	}
	a := New(cir, tcTech, extLib, Options{ClockPeriod: 3e-9})
	rep, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	before := rep.WorstArrival

	// ECO: upsize the gates on the critical course.
	course := rep.CriticalCourse(cir)
	var changed []*netlist.Gate
	for _, n := range course {
		node := cir.Node(n)
		if node.Driver == nil {
			continue
		}
		g := node.Driver
		if cell.IsUpsized(g.Cell.Name) {
			continue
		}
		if err := cir.ReplaceCell(g, ext, g.Cell.Name+cell.DriveSuffix); err != nil {
			t.Fatal(err)
		}
		changed = append(changed, g)
	}
	if len(changed) == 0 {
		t.Fatal("nothing to resize")
	}
	if err := a.Incremental(rep, changed); err != nil {
		t.Fatal(err)
	}
	full, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Incremental result must equal the full re-run on every node.
	for name, want := range full.Nodes {
		got := rep.Nodes[name]
		if math.Abs(got.Arrival-want.Arrival) > 1e-18 || math.Abs(got.Slew-want.Slew) > 1e-18 {
			t.Fatalf("node %s: incremental (%g, %g) vs full (%g, %g)",
				name, got.Arrival, got.Slew, want.Arrival, want.Slew)
		}
		if math.Abs(got.Slack-want.Slack) > 1e-15 {
			t.Fatalf("node %s slack: %g vs %g", name, got.Slack, want.Slack)
		}
	}
	// stalint:ignore floatcmp incremental reanalysis must be bit-identical to full
	if rep.WorstArrival != full.WorstArrival || rep.WorstOutput != full.WorstOutput {
		t.Error("summary fields diverge")
	}
	t.Logf("ECO on %d gates: worst arrival %.1f → %.1f ps", len(changed), before*1e12, full.WorstArrival*1e12)
}

func TestIncrementalNoChanges(t *testing.T) {
	rep, a := analyze(t, "c17", Options{})
	before := rep.WorstArrival
	if err := a.Incremental(rep, nil); err != nil {
		t.Fatal(err)
	}
	// stalint:ignore floatcmp a no-op incremental pass must not perturb a single bit
	if rep.WorstArrival != before {
		t.Error("no-op incremental changed the report")
	}
}
