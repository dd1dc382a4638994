package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/polyfit"
)

// Batched-evaluator checks: every recorded delay and bound against a
// one-arc-at-a-time walk of the same kernels, path lengths around the
// BatchWidth round boundaries, an uncharacterized arc mid-path, and the
// steady-state allocation gate on a multi-round path. The search-level
// library oracle suite (every recorded delay against legacyArcDelays)
// lives in kernels_test.go.

// arcVec re-derives the search-graph vector ID of a name-keyed arc —
// the pin's position among the cell's inputs, then the vector's Case —
// independently of the production resolution (kernelScratch.resolve).
func arcVec(e *Engine, a *Arc) (int32, error) {
	pi := slices.Index(a.Gate.Cell.Inputs, a.Pin)
	if pi < 0 {
		return 0, fmt.Errorf("arc %s/%s: unknown pin", a.Gate.Name, a.Pin)
	}
	lo, hi := e.graph.vecRange(int32(a.Gate.ID), uint8(pi))
	if a.Vec.Case < 1 || int32(a.Vec.Case) > hi-lo {
		return 0, fmt.Errorf("arc %s/%s: unknown case %d", a.Gate.Name, a.Pin, a.Vec.Case)
	}
	return lo + int32(a.Vec.Case-1), nil
}

// gateSlots lists the kernel slots of gate g's cell: every (pin,
// vector, edge) arc, in cell-input, Case and edge order.
func gateSlots(e *Engine, g *netlist.Gate) []int32 {
	gc := &e.graph.cells[e.graph.gates[g.ID].cell]
	var slots []int32
	for si := 2 * gc.vecOff[0]; si < 2*gc.vecOff[len(g.Cell.Inputs)]; si++ {
		slots = append(slots, si)
	}
	return slots
}

// scalarArcDelays is the scalar oracle for the batched evaluator: it
// addresses each arc's slot (arcVec), then evaluates the table's delay
// and slew kernels one arc at a time with polyfit.Pool.EvalOne, taking
// output edges from Cell.OutputEdge. It shares the kernels with the
// production query but none of its lane batching, shared power blocks
// or two-pass summation; Pool.EvalOne itself is pinned against
// polyfit.Model.Eval in the polyfit tests.
func scalarArcDelays(e *Engine, arcs []Arc, launchRising bool) ([]float64, error) {
	kt, err := e.kernels()
	if err != nil {
		return nil, err
	}
	one := make([]float64, kt.pool.ScratchLen())
	out := make([]float64, len(arcs))
	slew := e.Opts.InputSlew
	rising := launchRising
	for i := range arcs {
		a := &arcs[i]
		if err := kt.foErr[a.Gate.ID]; err != nil {
			return nil, err
		}
		v, err := arcVec(e, a)
		if err != nil {
			return nil, err
		}
		si := 2*v + int32(edgeIndex(rising))
		did, sid := kt.delayID[si], kt.slewID[si]
		if did < 0 {
			return nil, fmt.Errorf("arc %s/%s vector %s: no kernel", a.Gate.Name, a.Pin, a.Vec.Key())
		}
		fo := kt.fo[a.Gate.ID]
		out[i] = kt.pool.EvalOne(did, fo, slew, one)
		slew = kt.pool.EvalOne(sid, fo, slew, one)
		outRising, ok := a.Gate.Cell.OutputEdge(a.Vec, rising)
		if !ok {
			return nil, fmt.Errorf("arc %s/%s vector %s does not propagate", a.Gate.Name, a.Pin, a.Vec.Key())
		}
		rising = outRising
	}
	return out, nil
}

// assertScalarDelays checks, for every recorded edge of res, that the
// batched ArcDelays equal scalarArcDelays arc by arc and that the
// recorded path delay is their in-order sum, all bit for bit.
func assertScalarDelays(t *testing.T, label string, e *Engine, res *Result) {
	t.Helper()
	if len(res.Paths) == 0 {
		t.Fatalf("%s: no paths", label)
	}
	for _, p := range res.Paths {
		for _, edge := range []struct {
			rising, ok bool
			delay      float64
		}{{true, p.RiseOK, p.RiseDelay}, {false, p.FallOK, p.FallDelay}} {
			if !edge.ok {
				continue
			}
			batched, err := e.ArcDelays(p.Arcs, edge.rising)
			if err != nil {
				t.Fatalf("%s %s: %v", label, p, err)
			}
			scalar, err := scalarArcDelays(e, p.Arcs, edge.rising)
			if err != nil {
				t.Fatalf("%s %s: %v", label, p, err)
			}
			total := 0.0
			for i := range scalar {
				if math.Float64bits(batched[i]) != math.Float64bits(scalar[i]) {
					t.Errorf("%s %s rising=%v arc %d: batched %v vs scalar %v", label, p, edge.rising, i, batched[i], scalar[i])
				}
				total += scalar[i]
			}
			if math.Float64bits(edge.delay) != math.Float64bits(total) {
				t.Errorf("%s %s rising=%v: recorded %v vs scalar sum %v", label, p, edge.rising, edge.delay, total)
			}
		}
	}
}

// batchDiffWorkers runs the scalar comparisons serial and on an even
// pool.
var batchDiffWorkers = []int{1, 4}

// TestBatchedMatchesScalarEnumerate checks every delay a full
// enumeration records against the scalar kernel walk, serial and
// sharded.
func TestBatchedMatchesScalarEnumerate(t *testing.T) {
	for _, name := range kernelDiffCircuits {
		t.Run(name, func(t *testing.T) {
			for _, w := range batchDiffWorkers {
				e := delayEngine(t, name, w)
				res, err := e.Enumerate()
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertScalarDelays(t, fmt.Sprintf("workers=%d", w), e, res)
			}
		})
	}
}

// TestBatchedMatchesScalarKWorst checks the branch-and-bound search:
// every recorded delay against the scalar kernel walk, and every
// gate's batched bound (gateUB) against 1.15 × the largest
// scalar kernel evaluation over the gate's arcs at the slowest grid
// Tin, bit for bit — a drifting bound would change the pruning, and
// with it the k-worst set.
func TestBatchedMatchesScalarKWorst(t *testing.T) {
	const k = 5
	for _, name := range kernelDiffCircuits {
		t.Run(name, func(t *testing.T) {
			for _, w := range batchDiffWorkers {
				e := delayEngine(t, name, w)
				res, err := e.KWorst(k)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertScalarDelays(t, fmt.Sprintf("workers=%d", w), e, res)
			}
			e := delayEngine(t, name, 1)
			kt, err := e.kernels()
			if err != nil {
				t.Fatal(err)
			}
			slowest := e.Lib.Grid.Tin[len(e.Lib.Grid.Tin)-1]
			one := make([]float64, kt.pool.ScratchLen())
			for _, g := range e.Circuit.Gates {
				worst := 0.0
				for _, si := range gateSlots(e, g) {
					did := kt.delayID[si]
					if did < 0 {
						t.Fatalf("gate %s (%s): uncharacterized arc at slot %d", g.Name, g.Cell.Name, si)
					}
					if d := kt.pool.EvalOne(did, kt.fo[g.ID], slowest, one); d > worst {
						worst = d
					}
				}
				ub, err := e.gateUB(g)
				if err != nil {
					t.Fatal(err)
				}
				if want := worst * 1.15; math.Float64bits(ub) != math.Float64bits(want) {
					t.Errorf("gate %s (%s): arcUB %v, want %v", g.Name, g.Cell.Name, ub, want)
				}
			}
		})
	}
}

// TestBatchedMatchesScalarCourse checks single-course exploration of
// each circuit's worst recorded course against the scalar kernel walk.
func TestBatchedMatchesScalarCourse(t *testing.T) {
	for _, name := range kernelDiffCircuits {
		full, err := delayEngine(t, name, 1).Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		course := full.Paths[0].Nodes
		for _, w := range batchDiffWorkers {
			e := delayEngine(t, name, w)
			res, err := e.EnumerateCourse(course)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			assertScalarDelays(t, fmt.Sprintf("%s workers=%d", name, w), e, res)
		}
	}
}

// invChain builds a chain of n INV gates — the one characterized cell
// with a single arc — so paths of every length are available for the
// tail-lane sweep.
func invChain(t testing.TB, n int) *netlist.Circuit {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("invchain")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	prev := "a"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i+1)
		if _, err := c.AddGate(lib, "INV", out, map[string]string{"A": prev}); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	c.MarkOutput(prev)
	return c
}

// invChainPath returns a warmed engine on an n-INV chain and the
// chain's one full-length path.
func invChainPath(t testing.TB, n int) (*Engine, []Arc) {
	t.Helper()
	e := New(invChain(t, n), t130(t), charLib130(t), Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	arcs := res.Paths[0].Arcs
	if len(arcs) != n {
		t.Fatalf("chain path has %d arcs, want %d", len(arcs), n)
	}
	return e, arcs
}

// TestBatchedTailLanes sweeps every path length from one arc through
// several full BatchWidth rounds plus every partial-tail residue,
// checking the batched delays bit for bit against the string-keyed,
// 4-variable evaluation.
func TestBatchedTailLanes(t *testing.T) {
	n := 2*polyfit.BatchWidth + polyfit.BatchWidth/2 // 20 arcs: full rounds + a partial tail
	e, arcs := invChainPath(t, n)
	for pre := 1; pre <= n; pre++ {
		got, err := e.ArcDelays(arcs[:pre], true)
		if err != nil {
			t.Fatalf("prefix %d: %v", pre, err)
		}
		want, err := legacyArcDelays(e, arcs[:pre], true)
		if err != nil {
			t.Fatalf("prefix %d legacy: %v", pre, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("prefix %d arc %d: batched %v vs legacy %v", pre, i, got[i], want[i])
			}
		}
	}
}

// invChainWithAnd builds an INV chain with one AND2 spliced in at
// position at (side input b held non-controlling). Gates of the same
// cell share their kernel slots, so the AND2 — the only one of its
// cell — gives the nil-kernel test a slot unique to that path position.
func invChainWithAnd(t testing.TB, n, at int) *netlist.Circuit {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("invchain-and")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	prev := "a"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i+1)
		var err error
		if i == at {
			_, err = c.AddGate(lib, "AND2", out, map[string]string{"A": prev, "B": "b"})
		} else {
			_, err = c.AddGate(lib, "INV", out, map[string]string{"A": prev})
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	c.MarkOutput(prev)
	return c
}

// TestBatchedNilKernelErrorsAtExactArc pokes an uncharacterized hole
// into the middle of a warm kernel table and checks that the query
// fails on the exact arc with charlib.Library.GateDelay's message for
// that arc, while the prefix before the hole still scores.
func TestBatchedNilKernelErrorsAtExactArc(t *testing.T) {
	n := polyfit.BatchWidth + 3
	hole := polyfit.BatchWidth + 1 // second round, mid-tail
	e := New(invChainWithAnd(t, n, hole), t130(t), charLib130(t), Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var arcs []Arc
	for _, p := range res.Paths {
		if p.Start == "a" && len(p.Arcs) == n {
			arcs = p.Arcs
			break
		}
	}
	if arcs == nil {
		t.Fatal("no full-length path from a")
	}
	if arcs[hole].Gate.Cell.Name != "AND2" {
		t.Fatalf("arc %d is %s, want the spliced AND2", hole, arcs[hole].Gate.Cell.Name)
	}
	kt, err := e.kernels()
	if err != nil {
		t.Fatal(err)
	}
	v, err := arcVec(e, &arcs[hole])
	if err != nil {
		t.Fatal(err)
	}
	kt.delayID[2*v] = -1   // stalint:ignore sharedstate test pokes a hole into a single-engine table it owns
	kt.delayID[2*v+1] = -1 // stalint:ignore sharedstate test pokes a hole into a single-engine table it owns

	if _, err := e.ArcDelays(arcs[:hole], true); err != nil {
		t.Fatalf("prefix before the hole must still score: %v", err)
	}
	rising := true
	for _, a := range arcs[:hole] {
		rising, _ = a.Gate.Cell.OutputEdge(a.Vec, rising)
	}
	a := arcs[hole]
	want := "charlib: no polynomial arc " + charlib.PolyKey(a.Gate.Cell.Name, a.Pin, a.Vec.Key(), rising)
	_, err = e.ArcDelays(arcs, true)
	if err == nil {
		t.Fatal("hole not detected")
	}
	if err.Error() != want {
		t.Errorf("error at the hole:\n got  %v\n want %s", err, want)
	}
	// A path's errors surface in path order whether the arc fails to
	// resolve by name or to score: an unknown pin after the hole leaves
	// the hole's error, one before it takes its place.
	for _, c := range []struct {
		at   int
		want string
	}{
		{hole + 1, want},
		{hole - 1, fmt.Sprintf("core: arc pin %s/nosuchpin unknown to the kernel table", arcs[hole-1].Gate.Name)},
	} {
		bad := slices.Clone(arcs)
		bad[c.at].Pin = "nosuchpin"
		if _, err := e.ArcDelays(bad, true); err == nil || err.Error() != c.want {
			t.Errorf("unknown pin at arc %d, hole at %d: error %v, want %s", c.at, hole, err, c.want)
		}
	}
}

// TestBatchedArcDelaysSteadyStateAllocs is the zero-allocation gate on
// a path spanning several BatchWidth rounds (the generic gate in
// kernels_test.go scores a short fig4 path): warm table, warm lane
// scratch, supplied buffer — no allocations per query.
func TestBatchedArcDelaysSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	e, arcs := invChainPath(t, 2*polyfit.BatchWidth+3)
	buf := make([]float64, 0, len(arcs))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = e.ArcDelaysInto(buf, arcs, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state ArcDelaysInto allocates %.1f objects per query", allocs)
	}
}

// TestKernelStatsBatchFields checks the pool/batch observability the
// struct-of-arrays layer adds to KernelStats.
func TestKernelStatsBatchFields(t *testing.T) {
	e := delayEngine(t, "fig4", 1)
	if _, err := e.Enumerate(); err != nil {
		t.Fatal(err)
	}
	st := e.KernelStats()
	if st.PoolKernels == 0 || st.PoolTerms == 0 || st.PoolOps == 0 {
		t.Errorf("empty pool stats: %+v", st)
	}
	if st.BatchRounds == 0 || st.BatchLanes < st.BatchRounds {
		t.Errorf("batch counters not advanced: %+v", st)
	}
	if st.BatchFill <= 0 || st.BatchFill > 1 {
		t.Errorf("BatchFill %v outside (0, 1]", st.BatchFill)
	}
}
