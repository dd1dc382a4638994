package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
	"tpsta/internal/obs"
)

// The differential harness: every parallel mode must reproduce the
// serial search byte-for-byte. Each test builds a fresh engine per
// worker count (engines cache loads and stats) and compares the full
// Result — paths with vectors, cubes, edges and exact float delays,
// plus the merged instrumentation counters.

func workerCounts() []int {
	ns := []int{2, 4, 8}
	if p := runtime.GOMAXPROCS(0); p != 2 && p != 4 && p != 8 {
		ns = append(ns, p)
	}
	return ns
}

func genCircuit(t testing.TB, p circuits.Profile) *netlist.Circuit {
	t.Helper()
	c, err := circuits.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// diffCircuits are the differential-test subjects: the paper's Fig. 4
// example, ISCAS c17 and two generated random circuits.
func diffCircuits(t testing.TB) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{}
	for _, name := range []string{"fig4", "c17"} {
		c, err := circuits.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	out["rand-small"] = genCircuit(t, circuits.Profile{
		Name: "rsmall", Inputs: 6, Outputs: 3, Gates: 25, Depth: 5, Seed: 7})
	out["rand-wide"] = genCircuit(t, circuits.Profile{
		Name: "rwide", Inputs: 10, Outputs: 5, Gates: 60, Depth: 6, Seed: 42})
	return out
}

func samePath(a, b *TruePath) bool {
	if a.Start != b.Start || !reflect.DeepEqual(a.Nodes, b.Nodes) {
		return false
	}
	if len(a.Arcs) != len(b.Arcs) {
		return false
	}
	for i := range a.Arcs {
		x, y := a.Arcs[i], b.Arcs[i]
		if x.Gate.Name != y.Gate.Name || x.Pin != y.Pin || x.Vec.Case != y.Vec.Case {
			return false
		}
	}
	// stalint:ignore floatcmp sharded search must reproduce serial delays bit-exactly
	delaysEqual := a.RiseDelay == b.RiseDelay && a.FallDelay == b.FallDelay
	return reflect.DeepEqual(a.Cube, b.Cube) &&
		a.RiseOK == b.RiseOK && a.FallOK == b.FallOK &&
		delaysEqual
}

// assertSameResult compares two results field by field. strictStats
// additionally demands identical instrumentation counters — true for
// the enumeration modes, whose merged counters must equal the serial
// ones exactly; false for K-worst, where the branch-and-bound counters
// are a property of the pruning schedule (each worker's private heap
// prunes later than the serial global heap), so only the reported
// paths, delays and truncation state are portable across pool sizes.
func assertSameResult(t *testing.T, label string, want, got *Result, strictStats bool) {
	t.Helper()
	if len(want.Paths) != len(got.Paths) {
		t.Fatalf("%s: %d paths, want %d", label, len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		if !samePath(want.Paths[i], got.Paths[i]) {
			t.Fatalf("%s: path %d differs:\n got  %v cube=%v delays=%g/%g\n want %v cube=%v delays=%g/%g",
				label, i,
				got.Paths[i], got.Paths[i].Cube, got.Paths[i].RiseDelay, got.Paths[i].FallDelay,
				want.Paths[i], want.Paths[i].Cube, want.Paths[i].RiseDelay, want.Paths[i].FallDelay)
		}
	}
	if got.Courses != want.Courses || got.MultiVectorCourses != want.MultiVectorCourses {
		t.Errorf("%s: courses %d/%d, want %d/%d", label,
			got.Courses, got.MultiVectorCourses, want.Courses, want.MultiVectorCourses)
	}
	if got.Truncated != want.Truncated || got.Truncation != want.Truncation {
		t.Errorf("%s: truncation %v/%v, want %v/%v", label,
			got.Truncated, got.Truncation, want.Truncated, want.Truncation)
	}
	if !strictStats {
		return
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats differ:\n got  %+v\n want %+v", label, got.Stats, want.Stats)
	}
	if got.Steps != want.Steps || got.JustificationAborts != want.JustificationAborts {
		t.Errorf("%s: steps/aborts %d/%d, want %d/%d", label,
			got.Steps, got.JustificationAborts, want.Steps, want.JustificationAborts)
	}
}

// runDiff executes run with Workers:1 and each parallel count and
// asserts the results are identical. Every worker count is also run
// twice to pin run-to-run determinism of the reported paths at a fixed
// pool size. Reruns compare stats at the mode's own strictness: the
// enumeration counters are steal-schedule invariant (every decision is
// attempted exactly once across the pool), but K-worst's
// branch-and-bound counters depend on which worker's heap pruned a
// cone, which varies with the (timing-dependent) steal schedule.
func runDiff(t *testing.T, label string, strictStats bool, run func(workers int) (*Result, error)) {
	t.Helper()
	serial, err := run(1)
	if err != nil {
		t.Fatalf("%s serial: %v", label, err)
	}
	for _, n := range workerCounts() {
		par, err := run(n)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, n, err)
		}
		assertSameResult(t, fmt.Sprintf("%s/workers=%d", label, n), serial, par, strictStats)
		again, err := run(n)
		if err != nil {
			t.Fatalf("%s workers=%d rerun: %v", label, n, err)
		}
		assertSameResult(t, fmt.Sprintf("%s/workers=%d/rerun", label, n), par, again, strictStats)
	}
}

func TestParallelEnumerateDifferential(t *testing.T) {
	tc := t130(t)
	for name, c := range diffCircuits(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			runDiff(t, name, true, func(w int) (*Result, error) {
				return New(c, tc, nil, Options{Workers: w}).Enumerate()
			})
		})
	}
}

// TestStructureOnlyNilTech pins the engine with neither technology nor
// library: it computes no electrical loads, so the parallel warm-up must
// not reach for the nil Tech. Enumerate at Workers 2 must reproduce the
// serial result, and the path report must render with its load column
// blank.
func TestStructureOnlyNilTech(t *testing.T) {
	for name, c := range diffCircuits(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := New(c, nil, nil, Options{Workers: 1}).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			e := New(c, nil, nil, Options{Workers: 2})
			par, err := e.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, name+"/workers=2", serial, par, true)
			if len(par.Paths) == 0 {
				t.Fatal("no paths to report")
			}
			p := par.Paths[0]
			var buf bytes.Buffer
			if err := e.WritePathReport(&buf, p, p.RiseOK); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "data arrival time") {
				t.Errorf("report lacks its arrival line:\n%s", buf.String())
			}
		})
	}
}

func TestParallelEnumerateWithDelaysDifferential(t *testing.T) {
	tc := t130(t)
	lib := charLib130(t)
	for _, name := range []string{"fig4", "c17"} {
		c, err := circuits.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			runDiff(t, name, true, func(w int) (*Result, error) {
				return New(c, tc, lib, Options{Workers: w}).Enumerate()
			})
		})
	}
}

func TestParallelRobustAndComplexOnlyDifferential(t *testing.T) {
	tc := t130(t)
	c, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	runDiff(t, "fig4/robust", true, func(w int) (*Result, error) {
		return New(c, tc, nil, Options{Workers: w, Robust: true}).Enumerate()
	})
	runDiff(t, "fig4/complex-only", true, func(w int) (*Result, error) {
		return New(c, tc, nil, Options{Workers: w, ComplexOnly: true}).Enumerate()
	})
}

func TestParallelKWorstDifferential(t *testing.T) {
	tc := t130(t)
	lib := charLib130(t)
	for name, c := range diffCircuits(t) {
		c := c
		useLib := lib
		if name == "rand-small" || name == "rand-wide" {
			useLib = nil // generated circuits may use uncharacterized cells
		}
		for _, k := range []int{1, 3, 10} {
			k := k
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				runDiff(t, name, false, func(w int) (*Result, error) {
					return New(c, tc, useLib, Options{Workers: w}).KWorst(k)
				})
			})
		}
	}
}

// courseCircuit builds a circuit whose launching input feeds an AO22
// directly, so the first hop of a course has several sensitization
// vectors — the sharding axis of the parallel EnumerateCourse.
func courseCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("course")
	for _, in := range []string{"a", "b", "x", "y", "e"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []struct {
		cell, out string
		pins      map[string]string
	}{
		{"AO22", "n1", map[string]string{"A": "a", "B": "b", "C": "x", "D": "y"}},
		{"NAND2", "out", map[string]string{"A": "n1", "B": "e"}},
	} {
		if _, err := c.AddGate(lib, spec.cell, spec.out, spec.pins); err != nil {
			t.Fatal(err)
		}
	}
	c.MarkOutput("out")
	return c
}

func TestParallelEnumerateCourseDifferential(t *testing.T) {
	tc := t130(t)
	c := courseCircuit(t)
	course := []string{"a", "n1", "out"}
	runDiff(t, "course a→n1→out", true, func(w int) (*Result, error) {
		return New(c, tc, nil, Options{Workers: w}).EnumerateCourse(course)
	})
	// The whole-circuit search over the same netlist must agree too.
	runDiff(t, "course circuit enumerate", true, func(w int) (*Result, error) {
		return New(c, tc, nil, Options{Workers: w}).Enumerate()
	})
	// Fig. 4's critical path has a single-vector first hop, so the
	// parallel request must fall back to the serial walk and still
	// agree with it.
	fig4, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	runDiff(t, "fig4 critical path", true, func(w int) (*Result, error) {
		return New(fig4, tc, nil, Options{Workers: w}).EnumerateCourse(circuits.Fig4CriticalPath())
	})
}

// pathID keys a path by its full reported identity (course, vectors,
// cube, edges) for subset checks.
func pathID(p *TruePath) string {
	return p.CourseKey() + "|" + p.variantID()
}

// Truncated parallel runs race the shared global budget, so which
// paths land inside it depends on scheduling — worker-count and
// run-to-run byte-identity is no longer the contract. What a truncated
// run does guarantee, at every pool size:
//
//   - every reported path is a true path of the untruncated serial
//     set, bit-identical delays included;
//   - under MaxSteps, the pool performs exactly the configured number
//     of sensitization attempts (the serial ceiling, no rounding
//     remainder lost) and reports max-steps truncation;
//   - under MaxVariants, exactly the configured number of variants is
//     reported with max-variants truncation.
func TestParallelCapsWorkerCountInvariant(t *testing.T) {
	tc := t130(t)
	c := genCircuit(t, circuits.Profile{
		Name: "rcap", Inputs: 8, Outputs: 4, Gates: 40, Depth: 6, Seed: 99})
	full, err := New(c, tc, nil, Options{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]*TruePath{}
	for _, p := range full.Paths {
		known[pathID(p)] = p
	}
	// A budget below the natural total, deliberately not divisible by
	// the 8 shards (the old even split would lose the remainder).
	budget := full.Steps/2 + 1
	if budget%8 == 0 {
		budget++
	}
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("max-steps/workers=%d", n), func(t *testing.T) {
			res, err := New(c, tc, nil, Options{Workers: n, MaxSteps: budget}).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated || res.Truncation != TruncMaxSteps {
				t.Fatalf("truncation %v/%v, want true/max-steps", res.Truncated, res.Truncation)
			}
			if res.Steps != budget {
				t.Errorf("Steps = %d, want exactly the MaxSteps budget %d", res.Steps, budget)
			}
			assertSubsetOfFull(t, res, known)
		})
		t.Run(fmt.Sprintf("max-variants/workers=%d", n), func(t *testing.T) {
			res, err := New(c, tc, nil, Options{Workers: n, MaxVariants: 7}).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Truncated || res.Truncation != TruncMaxVariants {
				t.Fatalf("truncation %v/%v, want true/max-variants", res.Truncated, res.Truncation)
			}
			if len(res.Paths) != 7 {
				t.Errorf("%d paths, want the MaxVariants cap 7", len(res.Paths))
			}
			assertSubsetOfFull(t, res, known)
		})
	}
}

// assertSubsetOfFull checks every reported path of a truncated run
// against the untruncated serial set, delays included.
func assertSubsetOfFull(t *testing.T, res *Result, known map[string]*TruePath) {
	t.Helper()
	for _, p := range res.Paths {
		want, ok := known[pathID(p)]
		if !ok {
			t.Fatalf("truncated run reported a path outside the untruncated set: %v", p)
		}
		if !samePath(want, p) {
			t.Fatalf("truncated run path differs from its untruncated twin:\n got  %v cube=%v\n want %v cube=%v",
				p, p.Cube, want, want.Cube)
		}
	}
}

// The global budget replaces the per-shard even split, whose rounding
// dropped MaxSteps % shards: serial and parallel must observe the same
// total step ceiling, exactly.
func TestGlobalBudgetCeiling(t *testing.T) {
	tc := t130(t)
	c := genCircuit(t, circuits.Profile{
		Name: "rbudget", Inputs: 7, Outputs: 4, Gates: 45, Depth: 6, Seed: 11})
	full, err := New(c, tc, nil, Options{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// A budget below the natural total, deliberately not divisible by
	// the 7 shards.
	budget := full.Steps/2 + 1
	if budget%7 == 0 {
		budget++
	}
	serial, err := New(c, tc, nil, Options{MaxSteps: budget}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Truncated {
		t.Fatalf("serial run with budget %d of %d not truncated", budget, full.Steps)
	}
	for _, n := range []int{2, 4, 8} {
		res, err := New(c, tc, nil, Options{Workers: n, MaxSteps: budget}).Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != budget {
			t.Errorf("workers=%d: Steps = %d, want the full budget %d (no remainder lost)",
				n, res.Steps, budget)
		}
		if !res.Truncated || res.Truncation != TruncMaxSteps {
			t.Errorf("workers=%d: truncation %v/%v, want true/max-steps", n, res.Truncated, res.Truncation)
		}
	}
}

// Steal storm: donation poll every step, far more workers than shards,
// race detector on (make check). The result must still be
// byte-identical to serial with exact merged counters, and the pool
// must actually have donated subtrees (that is the point of the
// configuration).
func TestStealStorm(t *testing.T) {
	tc := t130(t)
	c := genCircuit(t, circuits.Profile{
		Name: "rstorm", Inputs: 6, Outputs: 4, Gates: 50, Depth: 7, Seed: 23})
	serial, err := New(c, tc, nil, Options{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, tc, nil, Options{Workers: 16, StealPollSteps: 1})
	par, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "steal-storm", serial, par, true)
	ps := e.ParallelStats()
	if ps.Donations == 0 {
		t.Error("steal storm produced no donations")
	}
	if ps.Units <= int64(ps.Shards) {
		t.Errorf("Units = %d, want > Shards = %d (donated subtrees scheduled)", ps.Units, ps.Shards)
	}
	var steals int64
	for _, s := range ps.StealsByWorker {
		steals += s
	}
	if steals != ps.ShardSteals+ps.SubtreeSteals {
		t.Errorf("per-worker steals sum %d != shard %d + subtree %d steals",
			steals, ps.ShardSteals, ps.SubtreeSteals)
	}
	// KWorst under the same storm: the k-best merge is steal-invariant.
	kSerial, err := New(c, tc, nil, Options{}).KWorst(5)
	if err != nil {
		t.Fatal(err)
	}
	kPar, err := New(c, tc, nil, Options{Workers: 16, StealPollSteps: 1}).KWorst(5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "steal-storm/kworst", kSerial, kPar, false)
}

// safeTrace is a concurrency-safe collecting tracer.
type safeTrace struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (s *safeTrace) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evs = append(s.evs, ev)
}

func TestParallelProgressAndTrace(t *testing.T) {
	tc := t130(t)
	c, err := circuits.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	tr := &safeTrace{}
	var mu sync.Mutex
	var last ProgressInfo
	calls := 0
	e := New(c, tc, nil, Options{
		Workers:       2,
		ProgressEvery: 1,
		Tracer:        tr,
		Progress: func(pi ProgressInfo) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			last = pi
		},
	})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no progress callbacks")
	}
	if !last.Done {
		t.Error("final progress callback not marked Done")
	}
	if last.Workers != 2 {
		t.Errorf("final progress Workers = %d, want 2", last.Workers)
	}
	if last.Steps != res.Steps {
		t.Errorf("final progress Steps = %d, want %d", last.Steps, res.Steps)
	}
	dones := 0
	for _, ev := range tr.evs {
		if ev.Kind == "done" {
			dones++
			if ev.Steps != res.Steps {
				t.Errorf("done event Steps = %d, want %d", ev.Steps, res.Steps)
			}
		}
	}
	if dones != 1 {
		t.Errorf("%d done events, want exactly 1", dones)
	}
	if last := tr.evs[len(tr.evs)-1]; last.Kind != "done" {
		t.Errorf("last trace event kind %q, want done", last.Kind)
	}
}

func TestParallelStatsSnapshot(t *testing.T) {
	tc := t130(t)
	c, err := circuits.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, tc, nil, Options{Workers: 3})
	if got := e.ParallelStats(); got.Workers != 0 {
		t.Errorf("pre-run ParallelStats = %+v, want zero", got)
	}
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	ps := e.ParallelStats()
	if ps.Workers != 3 {
		t.Errorf("Workers = %d, want 3", ps.Workers)
	}
	if ps.Shards != len(c.Inputs) {
		t.Errorf("Shards = %d, want %d", ps.Shards, len(c.Inputs))
	}
	if ps.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %g", ps.WallSeconds)
	}
	if len(ps.BusySeconds) != 3 {
		t.Errorf("BusySeconds len = %d", len(ps.BusySeconds))
	}
	if ps.Utilization < 0 || ps.Utilization > 1 {
		t.Errorf("Utilization = %g", ps.Utilization)
	}
	if e.Stats() != res.Stats {
		t.Errorf("engine Stats %+v != result Stats %+v", e.Stats(), res.Stats)
	}
}

// Serial runs through the parallel-capable engine must leave the
// existing serial semantics (budget rollover) untouched.
func TestWorkersOneIsSerial(t *testing.T) {
	e := structEngine(t, "fig4")
	e.Opts.Workers = 1
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if e.ParallelStats().Workers != 0 {
		t.Error("serial run recorded ParallelStats")
	}
	if len(res.Paths) == 0 {
		t.Fatal("no paths")
	}
}
