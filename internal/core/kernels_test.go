package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"tpsta/internal/circuits"
)

// legacyArcDelays recomputes ArcDelays the pre-kernel way: string-keyed
// library lookups and the full 4-variable polynomial at (T, VDD). The
// kernel layer must reproduce it bit for bit.
func legacyArcDelays(e *Engine, arcs []Arc, launchRising bool) ([]float64, error) {
	out := make([]float64, len(arcs))
	slew := e.Opts.InputSlew
	rising := launchRising
	for i, a := range arcs {
		fo, err := e.Lib.Fo(a.Gate.Cell.Name, e.load(a.Gate))
		if err != nil {
			return nil, err
		}
		d, outSlew, err := e.Lib.GateDelay(a.Gate.Cell.Name, a.Pin, a.Vec.Key(), rising, fo, slew, e.Opts.Temp, e.Opts.VDD)
		if err != nil {
			return nil, err
		}
		out[i] = d
		slew = outSlew
		outRising, ok := a.Gate.Cell.OutputEdge(a.Vec, rising)
		if !ok {
			return nil, errors.New("vector does not propagate")
		}
		rising = outRising
	}
	return out, nil
}

func legacyPathDelay(t *testing.T, e *Engine, arcs []Arc, launchRising bool) float64 {
	t.Helper()
	ds, err := legacyArcDelays(e, arcs, launchRising)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, d := range ds {
		total += d
	}
	return total
}

func delayEngine(t testing.TB, circuit string, workers int) *Engine {
	t.Helper()
	cNet, err := circuits.Get(circuit)
	if err != nil {
		t.Fatal(err)
	}
	return New(cNet, t130(t), charLib130(t), Options{Workers: workers})
}

// kernelDiffCircuits are the characterized kernel-oracle subjects: every
// cell of fig4 and c17 is in charLib130.
var kernelDiffCircuits = []string{"fig4", "c17"}

// kernelDiffWorkers covers the serial search and uneven and even pools.
var kernelDiffWorkers = []int{1, 3, 4}

// assertLegacyDelays checks every recorded edge delay of res against the
// string-keyed, 4-variable evaluation bit for bit.
func assertLegacyDelays(t *testing.T, label string, e *Engine, res *Result) {
	t.Helper()
	if len(res.Paths) == 0 {
		t.Fatalf("%s: no paths", label)
	}
	for _, p := range res.Paths {
		if p.RiseOK {
			want := legacyPathDelay(t, e, p.Arcs, true)
			if math.Float64bits(p.RiseDelay) != math.Float64bits(want) {
				t.Errorf("%s %s rise: kernel %v vs legacy %v", label, p, p.RiseDelay, want)
			}
		}
		if p.FallOK {
			want := legacyPathDelay(t, e, p.Arcs, false)
			if math.Float64bits(p.FallDelay) != math.Float64bits(want) {
				t.Errorf("%s %s fall: kernel %v vs legacy %v", label, p, p.FallDelay, want)
			}
		}
	}
}

// TestKernelDelaysBitIdenticalEnumerate checks the kernel contract on a
// full enumeration: every recorded path's delay equals the
// string-keyed, 4-variable evaluation bit for bit, serial and sharded,
// and every pool reproduces the serial result byte for byte.
func TestKernelDelaysBitIdenticalEnumerate(t *testing.T) {
	for _, name := range kernelDiffCircuits {
		t.Run(name, func(t *testing.T) {
			var serial *Result
			for _, workers := range kernelDiffWorkers {
				e := delayEngine(t, name, workers)
				res, err := e.Enumerate()
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				assertLegacyDelays(t, label, e, res)
				if serial == nil {
					serial = res
					continue
				}
				assertSameResult(t, label, serial, res, true)
			}
		})
	}
}

// TestKernelDelaysBitIdenticalKWorst checks the same contract under the
// branch-and-bound search, whose pruning thresholds are built from the
// kernels too. Stats are not compared across pools: the parallel heap
// counters depend on the steal schedule.
func TestKernelDelaysBitIdenticalKWorst(t *testing.T) {
	const k = 5
	for _, name := range kernelDiffCircuits {
		t.Run(name, func(t *testing.T) {
			var serial *Result
			for _, workers := range kernelDiffWorkers {
				e := delayEngine(t, name, workers)
				res, err := e.KWorst(k)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				assertLegacyDelays(t, label, e, res)
				if serial == nil {
					serial = res
					continue
				}
				assertSameResult(t, label, serial, res, false)
			}
		})
	}
}

// TestKernelDelaysBitIdenticalCourse checks the contract under
// single-course exploration of each circuit's worst recorded course.
func TestKernelDelaysBitIdenticalCourse(t *testing.T) {
	for _, name := range kernelDiffCircuits {
		t.Run(name, func(t *testing.T) {
			full, err := delayEngine(t, name, 1).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			course := full.Paths[0].Nodes
			var serial *Result
			for _, workers := range kernelDiffWorkers {
				e := delayEngine(t, name, workers)
				res, err := e.EnumerateCourse(course)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("workers=%d", workers)
				assertLegacyDelays(t, label, e, res)
				if serial == nil {
					serial = res
					continue
				}
				assertSameResult(t, label, serial, res, true)
			}
		})
	}
}

// TestKWorstBoundsMatchLibrary pins the branch-and-bound bound table
// against the string-keyed library: every gate's bound (gateUB, the
// input of suffixUB) is 1.15 × the largest GateDelay over its (pin,
// vector, edge) arcs at the gate's load and the slowest characterized
// input slew, bit for bit. A drifting bound would change the pruning,
// and with it the k-worst set. On charLib130 a falling-input arc sets
// every bound, so the rising lanes of the max are covered by the
// path-delay tests above, not here.
func TestKWorstBoundsMatchLibrary(t *testing.T) {
	for _, name := range kernelDiffCircuits {
		t.Run(name, func(t *testing.T) {
			e := delayEngine(t, name, 1)
			slowest := e.Lib.Grid.Tin[len(e.Lib.Grid.Tin)-1]
			for _, g := range e.Circuit.Gates {
				fo, err := e.Lib.Fo(g.Cell.Name, e.load(g))
				if err != nil {
					t.Fatal(err)
				}
				worst := 0.0
				for _, pin := range g.Cell.Inputs {
					for _, vec := range g.Cell.Vectors(pin) {
						for _, rising := range [2]bool{false, true} {
							d, _, err := e.Lib.GateDelay(g.Cell.Name, pin, vec.Key(), rising, fo, slowest, e.Opts.Temp, e.Opts.VDD)
							if err != nil {
								t.Fatal(err)
							}
							if d > worst {
								worst = d
							}
						}
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

// TestArcDelaysMatchesArcDelaysInto pins the wrapper relation and the
// buffer-reuse contract.
func TestArcDelaysMatchesArcDelaysInto(t *testing.T) {
	e := delayEngine(t, "fig4", 1)
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	fresh, err := e.ArcDelays(p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 0, len(p.Arcs)+4)
	got, err := e.ArcDelaysInto(buf, p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("ArcDelaysInto did not reuse the caller's buffer")
	}
	if len(got) != len(fresh) {
		t.Fatalf("%d delays vs %d", len(got), len(fresh))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(fresh[i]) {
			t.Errorf("arc %d: %v vs %v", i, got[i], fresh[i])
		}
	}
}

// TestArcDelaysRejectsUnknownArcs checks that a hand-built arc the
// gate's slot block does not hold — a vector case past the pin's last,
// a case below 1, a pin the cell lacks — is an error naming it, not
// another arc's slot.
func TestArcDelaysRejectsUnknownArcs(t *testing.T) {
	e := delayEngine(t, "fig4", 1)
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	a := res.Paths[0].Arcs[0]
	cases := len(a.Gate.Cell.Vectors(a.Pin))
	for _, c := range []struct {
		pin     string
		vecCase int
		want    string
	}{
		{a.Pin, cases + 1, fmt.Sprintf("core: arc %s/%s vector case %d unknown to the kernel table", a.Gate.Name, a.Pin, cases+1)},
		{a.Pin, 0, fmt.Sprintf("core: arc %s/%s vector case 0 unknown to the kernel table", a.Gate.Name, a.Pin)},
		{"nosuchpin", a.Vec.Case, fmt.Sprintf("core: arc pin %s/nosuchpin unknown to the kernel table", a.Gate.Name)},
	} {
		bad := a
		bad.Pin = c.pin
		bad.Vec.Case = c.vecCase
		if _, err := e.ArcDelays([]Arc{bad}, true); err == nil || err.Error() != c.want {
			t.Errorf("pin %s case %d: error %v, want %q", c.pin, c.vecCase, err, c.want)
		}
	}
}

// TestKernelOperatingPointRebuild checks that changing (T, VDD) on the
// engine rebuilds the kernels rather than serving the stale
// specialization.
func TestKernelOperatingPointRebuild(t *testing.T) {
	e := delayEngine(t, "fig4", 1)
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	before, err := e.ArcDelays(p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	e.Opts.Temp = 60 // outside the TestGrid sweep: clamps, but must re-specialize
	after, err := e.ArcDelays(p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacyArcDelays(e, p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if math.Float64bits(after[i]) != math.Float64bits(want[i]) {
			t.Errorf("arc %d at T=60: kernel %v vs legacy %v", i, after[i], want[i])
		}
	}
	_ = before
}

// TestKernelStats checks the observability surface of the kernel layer.
func TestKernelStats(t *testing.T) {
	e := delayEngine(t, "fig4", 1)
	if st := e.KernelStats(); st != (KernelStats{}) {
		t.Errorf("stats before any query: %+v", st)
	}
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	st := e.KernelStats()
	if st.Arcs == 0 || st.Terms == 0 {
		t.Errorf("no kernels built: %+v", st)
	}
	if st.ArcQueries == 0 {
		t.Errorf("no queries counted: %+v", st)
	}
	// Every recorded path scored each true edge once over its arcs.
	var wantMin int64
	for _, p := range res.Paths {
		if p.RiseOK {
			wantMin += int64(len(p.Arcs))
		}
		if p.FallOK {
			wantMin += int64(len(p.Arcs))
		}
	}
	if st.ArcQueries < wantMin {
		t.Errorf("ArcQueries %d < %d scored arcs", st.ArcQueries, wantMin)
	}
}

// TestKernelSharedAcrossWorkers checks that a parallel run builds the
// table once and aggregates worker queries on the shared counter.
func TestKernelSharedAcrossWorkers(t *testing.T) {
	e := delayEngine(t, "fig4", 3)
	if _, err := e.Enumerate(); err != nil {
		t.Fatal(err)
	}
	st := e.KernelStats()
	if st.Arcs == 0 || st.ArcQueries == 0 {
		t.Errorf("parallel run did not share the kernel table: %+v", st)
	}
}

// TestStructureOnlyArcDelaysInto covers the nil-library unit-delay path
// of the scratch variant.
func TestStructureOnlyArcDelaysInto(t *testing.T) {
	e := structEngine(t, "c17")
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	ds, err := e.ArcDelaysInto(make([]float64, 0, 8), p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		// stalint:ignore floatcmp unit delays are assigned exactly
		if d != 1 {
			t.Errorf("arc %d: unit delay %v", i, d)
		}
	}
}

// TestArcDelaysSteadyStateAllocs is the allocation-regression gate:
// once the kernel table is warm and the caller supplies a buffer, an
// arc-delay query must not allocate. The race detector's bookkeeping
// breaks AllocsPerRun accounting, so the check is skipped under -race.
func TestArcDelaysSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	e := delayEngine(t, "fig4", 1)
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	arcs := res.Paths[0].Arcs
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
