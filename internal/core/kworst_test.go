package core

import (
	"math"
	"testing"

	"tpsta/internal/netlist"
)

// TestArcUBAdmissible pins the first assumption of the K-worst bound:
// no arc of a gate is slower than the gate's bound (gateUB, the input
// of suffixUB) at any input slew. The kernels clamp slew to the
// characterized range, so a dense sweep across and beyond that range
// reaches every delay an arc can take; the sweep covers every arc of
// every gate of the library-backed test circuits.
func TestArcUBAdmissible(t *testing.T) {
	const points = 2000
	tc, lib := t130(t), charLib130(t)
	lo, hi := lib.Grid.Tin[0], lib.Grid.Tin[len(lib.Grid.Tin)-1]
	from, to := lo/2, 2*hi
	worst := 0.0
	for name, c := range libCircuits(t) {
		e := New(c, tc, lib, Options{})
		kt, err := e.kernels()
		if err != nil {
			t.Fatal(err)
		}
		one := make([]float64, kt.pool.ScratchLen())
		for _, g := range c.Gates {
			ub, err := e.gateUB(g)
			if err != nil {
				t.Fatal(err)
			}
			for ai, si := range gateSlots(e, g) {
				for i := 0; i <= points; i++ {
					tin := from + (to-from)*float64(i)/points
					d := kt.pool.EvalOne(kt.delayID[si], kt.fo[g.ID], tin, one)
					if d > ub {
						t.Fatalf("%s: gate %s (%s) arc %d at Tin %g: delay %g above arcUB %g",
							name, g.Name, g.Cell.Name, ai, tin, d, ub)
					}
					worst = math.Max(worst, d/ub)
				}
			}
		}
	}
	t.Logf("largest arc delay over the sweep: %.3f of arcUB", worst)
}

// TestArrivalMatchesPathDelay pins the second assumption: the arrival
// the K-worst search prunes on is exact. Replaying every path of an
// enumeration through the arrival step, in both launch scenarios, must
// reproduce ArcDelaysInto's total bit for bit — a path that ties the
// threshold must never be pruned — with the library and without one
// (one unit per arc). The arrival step and the candidate check must
// not allocate.
func TestArrivalMatchesPathDelay(t *testing.T) {
	tc, lib := t130(t), charLib130(t)
	for name, c := range libCircuits(t) {
		for _, e := range []*Engine{New(c, tc, lib, Options{Workers: 1}), New(c, tc, nil, Options{Workers: 1})} {
			res, err := e.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPruner(e, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range res.Paths {
				at := launchArrival(e)
				rising := true // the rise scenario's edge at the head
				for i := range tp.Arcs {
					a := &tp.Arcs[i]
					ref := refOf(*a)
					p.arrive(&at, 0, ref, e.graph.vecID(ref), rising, &e.ksc)
					p.arrive(&at, 1, ref, e.graph.vecID(ref), !rising, &e.ksc)
					rising, _ = a.Gate.Cell.OutputEdge(a.Vec, rising)
				}
				for sc, launchRising := range [2]bool{true, false} {
					ds, err := e.ArcDelaysInto(nil, tp.Arcs, launchRising)
					if err != nil {
						t.Fatal(err)
					}
					want := sumDelays(ds)
					if math.Float64bits(at.delay[sc]) != math.Float64bits(want) {
						t.Errorf("%s (lib %v): %v scenario %d: arrival %v, ArcDelaysInto total %v",
							name, e.Lib != nil, tp, sc, at.delay[sc], want)
					}
				}
			}
			if raceEnabled {
				continue
			}
			s := poolSearcher(e)
			s.prune = p
			s.arrs = append(s.arrs, launchArrival(e))
			s.aliveR, s.aliveF, s.curRising = true, true, true
			ref := c.Inputs[0].Fanout[0]
			a := arcRef{gate: int32(ref.Gate.ID), pin: uint8(pinIndex(ref.Gate.Cell.Inputs, ref.Pin))}
			s.prune.admit(s, a)
			if n := testing.AllocsPerRun(100, func() { s.prune.admit(s, a) }); n > 0 {
				t.Errorf("%s (lib %v): candidate check allocates %.1f objects, want 0", name, e.Lib != nil, n)
			}
		}
	}
}

// TestSuffixUBDominatesTruePaths pins the K-worst bound for whole
// paths, with the table the search prunes with: on every library-backed
// test circuit, each true path of an untruncated enumeration is at most
// suffixUB of its launch input. TestArcUBAdmissible pins the bound arc
// by arc.
func TestSuffixUBDominatesTruePaths(t *testing.T) {
	for name, c := range libCircuits(t) {
		res, p := boundedEnumeration(t, name, c)
		for _, tp := range res.Paths {
			if ub := p.suffixUB[c.Node(tp.Start).ID]; tp.WorstDelay() > ub {
				t.Errorf("%s: true path %v delay %g above its input's bound %g", name, tp, tp.WorstDelay(), ub)
			}
		}
	}
}

// TestSuffixUBPessimism checks, on every library-backed test circuit,
// that the circuit's bound (its largest suffixUB over the inputs) is not
// below its worst true path, and logs how far above it lies: the bound
// takes each gate's slowest arc, realizable or not.
func TestSuffixUBPessimism(t *testing.T) {
	for name, c := range libCircuits(t) {
		res, p := boundedEnumeration(t, name, c)
		worst := 0.0
		for _, tp := range res.Paths {
			worst = math.Max(worst, tp.WorstDelay())
		}
		bound := math.Inf(-1)
		for _, in := range c.Inputs {
			bound = math.Max(bound, p.suffixUB[in.ID])
		}
		if bound < worst {
			t.Fatalf("%s: bound %g below worst true path %g", name, bound, worst)
		}
		t.Logf("%s: bound %.1f ps over worst true path %.1f ps: %.0f%% pessimism",
			name, bound*1e12, worst*1e12, 100*(bound-worst)/worst)
	}
}

// boundedEnumeration enumerates c's true paths with the 130 nm library,
// failing unless the enumeration is whole, and builds the pruner whose
// suffixUB table the K-worst search bounds them with.
func boundedEnumeration(t *testing.T, name string, c *netlist.Circuit) (*Result, *pruner) {
	t.Helper()
	e := New(c, t130(t), charLib130(t), Options{Workers: 1})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Paths) == 0 {
		t.Fatalf("%s: %d paths, truncated %v", name, len(res.Paths), res.Truncation)
	}
	p, err := newPruner(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}
