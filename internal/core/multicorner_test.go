package core

import (
	"fmt"
	"math"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
	"tpsta/internal/tech"
)

// The multi-corner differential harness: every corner of a batch sweep
// must reproduce an independent serial engine run at that operating
// point byte-for-byte, at any worker count, for both search modes.
// The library is characterized over a real (T, VDD) sweep — the
// nominal-only TestGrid would make every corner's fixed powers
// identical and the sweep degenerate.

// cornerGrid sweeps temperature and supply on a reduced load/slew grid
// so the one-time spice characterization stays fast.
func cornerGrid() charlib.Grid {
	return charlib.Grid{
		Fo:     []float64{0.5, 2, 8},
		Tin:    []float64{20e-12, 80e-12, 250e-12},
		Temp:   []float64{-40, 25, 125},
		VDDRel: []float64{0.9, 1.0, 1.1},
	}
}

// cornerLibCache characterizes the corner-swept library once per test
// binary (the spice sweep is the expensive part).
var cornerLibCache *charlib.Library

func cornerLib130(t testing.TB) *charlib.Library {
	t.Helper()
	if cornerLibCache != nil {
		return cornerLibCache
	}
	lib, err := charlib.Characterize(t130(t), cell.Default(), cornerGrid(), charlib.Options{
		Cells: []string{"INV", "BUF", "NAND2", "AND2", "OR2", "AO22"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cornerLibCache = lib
	return lib
}

// cornerEngine builds an engine over the corner-swept library at an
// explicit operating point (zero temp/vdd = engine defaults).
func cornerEngine(t testing.TB, circuit string, workers int, temp, vdd float64) *Engine {
	t.Helper()
	cNet, err := circuits.Get(circuit)
	if err != nil {
		t.Fatal(err)
	}
	return New(cNet, t130(t), cornerLib130(t), Options{Workers: workers, Temp: temp, VDD: vdd})
}

// cornerPoints is the standard slow/typical/fast sweep over the 130nm
// nominal supply, matching variation.StandardCorners.
func cornerPoints(tc *tech.Tech) []OperatingPoint {
	return []OperatingPoint{
		{Name: "slow", Temp: 125, VDD: 0.9 * tc.VDD},
		{Name: "typ", Temp: 25, VDD: tc.VDD},
		{Name: "fast", Temp: -40, VDD: 1.1 * tc.VDD},
	}
}

// TestMultiCornerMatchesIndependentRuns is the tentpole differential:
// each corner of the sweep must be byte-identical to a fresh serial
// engine run at that point — across circuits, worker counts and both
// search modes. K-worst compares paths only (strictStats false): the
// pruning counters are a property of the heap schedule, exactly as in
// the single-corner parallel differential.
func TestMultiCornerMatchesIndependentRuns(t *testing.T) {
	tc := t130(t)
	points := cornerPoints(tc)
	for _, circuit := range []string{"fig4", "c17"} {
		// Independent serial reference per corner, shared by every
		// worker count below.
		wantEnum := make([]*Result, len(points))
		wantK := make([]*Result, len(points))
		for i, pt := range points {
			ie := cornerEngine(t, circuit, 1, pt.Temp, pt.VDD)
			res, err := ie.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			wantEnum[i] = res
			ik := cornerEngine(t, circuit, 1, pt.Temp, pt.VDD)
			if wantK[i], err = ik.KWorst(5); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range append([]int{1}, workerCounts()...) {
			e := cornerEngine(t, circuit, workers, 0, 0)
			mc, err := e.MultiCorner(points)
			if err != nil {
				t.Fatal(err)
			}
			if len(mc.Corners) != len(points) {
				t.Fatalf("%s w=%d: %d corners, want %d", circuit, workers, len(mc.Corners), len(points))
			}
			for i, cr := range mc.Corners {
				label := circuit + "/" + points[i].Name + "/enumerate"
				assertSameResult(t, label, wantEnum[i], cr.Result, true)
			}
			assertSweepStats(t, fmt.Sprintf("%s w=%d enumerate", circuit, workers), e, mc)
			ek := cornerEngine(t, circuit, workers, 0, 0)
			mck, err := ek.MultiCornerKWorst(points, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i, cr := range mck.Corners {
				label := circuit + "/" + points[i].Name + "/kworst"
				assertSameResult(t, label, wantK[i], cr.Result, false)
			}
			assertSweepStats(t, fmt.Sprintf("%s w=%d kworst", circuit, workers), ek, mck)
		}
	}
}

// assertSweepStats checks the sweep's accounting: after a sweep,
// Engine.Stats is the sum of the corners' own Result.Stats.
func assertSweepStats(t *testing.T, label string, e *Engine, mc *MultiCornerResult) {
	t.Helper()
	var want SearchStats
	for _, cr := range mc.Corners {
		want.add(cr.Result.Stats)
	}
	if got := e.Stats(); got != want {
		t.Errorf("%s: Engine.Stats %+v, want the corners' sum %+v", label, got, want)
	}
}

// TestCornerDelaysMatchLegacyModel is the corner oracle: at every
// point of a T/VDD-swept library, a fresh engine's Enumerate and the
// same corner of a MultiCorner sweep both score every recorded path
// bit for bit like the string-keyed 4-variable model evaluated at that
// point (legacyArcDelays), and every variant found at all three corners
// is slower at slow than at typical, slower at typical than at fast,
// with a slow-to-fast spread of at least 10% of its typical delay.
func TestCornerDelaysMatchLegacyModel(t *testing.T) {
	points := cornerPoints(t130(t))
	for _, workers := range []int{1, 4} {
		mc, err := cornerEngine(t, "fig4", workers, 0, 0).MultiCorner(points)
		if err != nil {
			t.Fatal(err)
		}
		worst := make([]map[sig128]float64, len(points))
		for i, pt := range points {
			oracle := cornerEngine(t, "fig4", workers, pt.Temp, pt.VDD)
			fresh, err := oracle.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("w=%d %s", workers, pt.Name)
			assertLegacyDelays(t, label+" fresh", oracle, fresh)
			assertLegacyDelays(t, label+" sweep", oracle, mc.Corners[i].Result)
			worst[i] = make(map[sig128]float64, len(fresh.Paths))
			for _, p := range fresh.Paths {
				worst[i][p.sig] = p.WorstDelay()
			}
		}
		compared := 0
		for sig, slow := range worst[0] {
			typ, okT := worst[1][sig]
			fast, okF := worst[2][sig]
			if !okT || !okF {
				continue
			}
			compared++
			if !(slow > typ && typ > fast) {
				t.Errorf("w=%d: corner ordering violated: slow %g, typ %g, fast %g", workers, slow, typ, fast)
			}
			if (slow-fast)/typ < 0.10 {
				t.Errorf("w=%d: slow-to-fast spread only %.1f%% of typical", workers, (slow-fast)/typ*100)
			}
		}
		if compared == 0 {
			t.Fatalf("w=%d: no variant found at all three corners", workers)
		}
	}
}

// TestMultiCornerBudgetTruncation pins the per-corner step budgets: a
// truncated sweep performs exactly MaxSteps per corner — not a share of
// a pooled global budget across corners.
func TestMultiCornerBudgetTruncation(t *testing.T) {
	tc := t130(t)
	points := cornerPoints(tc)
	const maxSteps = 12
	want := make([]*Result, len(points))
	for i, pt := range points {
		ie := cornerEngine(t, "c17", 1, pt.Temp, pt.VDD)
		ie.Opts.MaxSteps = maxSteps
		res, err := ie.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Fatalf("%s: reference run not truncated at %d steps", points[i].Name, maxSteps)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 4} {
		e := cornerEngine(t, "c17", workers, 0, 0)
		e.Opts.MaxSteps = maxSteps
		mc, err := e.MultiCorner(points)
		if err != nil {
			t.Fatal(err)
		}
		for i, cr := range mc.Corners {
			// The sweep draws each corner's budget one step at a time,
			// so it performs exactly MaxSteps per corner at every worker
			// count (the single-corner TestGlobalBudgetCeiling contract)
			// — never a share of some pooled cross-corner budget.
			if got := cr.Result.Steps; got != maxSteps {
				t.Errorf("w=%d %s: %d steps, want the per-corner ceiling %d", workers, points[i].Name, got, maxSteps)
			}
			if !cr.Result.Truncated {
				t.Errorf("w=%d %s: not truncated", workers, points[i].Name)
			}
		}
	}
}

// TestMultiCornerPerCornerCaps pins the per-corner caps: with a
// MaxVariants cap and a donation poll every step, each corner of a
// sweep stops at exactly its own cap. One capped corner must never
// stop another corner short of its cap.
func TestMultiCornerPerCornerCaps(t *testing.T) {
	points := cornerPoints(t130(t))
	for _, circuit := range []string{"c17", "fig4"} {
		for _, workers := range []int{2, 4} {
			e := cornerEngine(t, circuit, workers, 0, 0)
			e.Opts.MaxVariants = 3
			e.Opts.StealPollSteps = 1
			mc, err := e.MultiCorner(points)
			if err != nil {
				t.Fatal(err)
			}
			for i, cr := range mc.Corners {
				res := cr.Result
				if len(res.Paths) != 3 || res.Truncation != TruncMaxVariants || !res.Truncated {
					t.Errorf("%s w=%d %s: %d paths, truncation %v/%v; want 3 paths, true/max-variants",
						circuit, workers, points[i].Name, len(res.Paths), res.Truncated, res.Truncation)
				}
				if st := mc.Stats[i]; st.Paths != 3 || !st.Truncated {
					t.Errorf("%s w=%d %s: CornerStats paths=%d truncated=%v; want 3, true",
						circuit, workers, points[i].Name, st.Paths, st.Truncated)
				}
			}
		}
	}
}

// TestParallelStatsReconcile cross-checks the pool snapshot against
// itself for every pooled search mode: the scheduled units are the root
// units plus the donations, and the per-worker steals sum to the shard
// and subtree steals.
func TestParallelStatsReconcile(t *testing.T) {
	skew, err := circuits.Skewed("skewR", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		runs := []struct {
			name string
			run  func(*Engine) error
		}{
			{"enumerate", func(e *Engine) error { _, err := e.Enumerate(); return err }},
			{"kworst", func(e *Engine) error { _, err := e.KWorst(5); return err }},
		}
		for _, r := range runs {
			e := New(skew, t130(t), nil, Options{Workers: workers, StealPollSteps: 1})
			if err := r.run(e); err != nil {
				t.Fatal(err)
			}
			ps := e.ParallelStats()
			label := fmt.Sprintf("%s w=%d", r.name, workers)
			if ps.Workers != workers {
				t.Fatalf("%s: snapshot of %d workers", label, ps.Workers)
			}
			if roots := int64(ps.Shards); ps.Units != roots+ps.Donations {
				t.Errorf("%s: Units = %d, want %d root units + %d donations", label, ps.Units, roots, ps.Donations)
			}
			steals := int64(0)
			for _, n := range ps.StealsByWorker {
				steals += n
			}
			if steals != ps.ShardSteals+ps.SubtreeSteals {
				t.Errorf("%s: StealsByWorker sums to %d, want ShardSteals %d + SubtreeSteals %d",
					label, steals, ps.ShardSteals, ps.SubtreeSteals)
			}
		}
	}
}

// pinRefolded pins e to the operating point (temp, vdd) with a kernel
// table re-folded from e's current one (newCornerTable) — the table a
// corner sweep builds for every corner after its first.
func pinRefolded(t *testing.T, e *Engine, temp, vdd float64) *kernelTable {
	t.Helper()
	base, err := e.kernels()
	if err != nil {
		t.Fatal(err)
	}
	st := e.kernelStateAt(base, temp, vdd)
	if st.err != nil {
		t.Fatal(st.err)
	}
	e.Opts.Temp, e.Opts.VDD = temp, vdd
	e.kern = st
	return st.table
}

// TestRespecializeTableBitIdentical pins the shared-build contract
// below the search: a kernel table respecialized from another
// operating point's build must score every arc bit-identically to a
// from-scratch build at that point, and must be marked as shared.
func TestRespecializeTableBitIdentical(t *testing.T) {
	slowT, slowV := 125.0, 0.9*t130(t).VDD
	// Fresh engine at the slow corner: cache empty, full build.
	eFull := cornerEngine(t, "fig4", 1, slowT, slowV)
	want, err := eFull.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	ktFull, err := eFull.kernels()
	if err != nil {
		t.Fatal(err)
	}
	if ktFull.sharedBuild {
		t.Fatal("from-scratch build marked shared")
	}
	// Engine built at typical first, then pinned to slow with a table
	// re-folded from the typical one.
	eShared := cornerEngine(t, "fig4", 1, 0, 0)
	if _, err := eShared.Enumerate(); err != nil {
		t.Fatal(err)
	}
	ktShared := pinRefolded(t, eShared, slowT, slowV)
	if !ktShared.sharedBuild {
		t.Fatal("corner table was rebuilt from scratch, not respecialized")
	}
	got, err := eShared.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "respecialized slow corner", want, got, true)
	for _, p := range want.Paths {
		for _, rising := range []bool{true, false} {
			a, err := eFull.ArcDelays(p.Arcs, rising)
			if err != nil {
				t.Fatal(err)
			}
			b, err := eShared.ArcDelays(p.Arcs, rising)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("arc %d rising=%v: full %v vs respecialized %v", i, rising, a[i], b[i])
				}
			}
		}
	}
}

// TestMultiCornerCross pins the cross-corner report: per-corner delays
// of a variant its corner recorded must be that corner's exact value,
// WorstCorner must index the argmax, and the view must be sorted by
// worst cross-corner delay.
func TestMultiCornerCross(t *testing.T) {
	tc := t130(t)
	points := cornerPoints(tc)
	e := cornerEngine(t, "fig4", 2, 0, 0)
	mc, err := e.MultiCorner(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Cross) == 0 {
		t.Fatal("empty cross-corner view")
	}
	recorded := make([]map[sig128]float64, len(points))
	for i, cr := range mc.Corners {
		recorded[i] = map[sig128]float64{}
		for _, p := range cr.Result.Paths {
			recorded[i][p.sig] = p.WorstDelay()
		}
	}
	for ci := range points {
		if got, want := len(mc.Cross), len(recorded[ci]); got < want {
			t.Errorf("cross view has %d variants, corner %d alone recorded %d", got, ci, want)
		}
	}
	prev := math.Inf(1)
	for i, cp := range mc.Cross {
		if len(cp.Delays) != len(points) {
			t.Fatalf("cross %d: %d delays, want %d", i, len(cp.Delays), len(points))
		}
		for ci, d := range cp.Delays {
			if rec, ok := recorded[ci][cp.Path.sig]; ok && math.Float64bits(rec) != math.Float64bits(d) {
				t.Errorf("cross %d corner %d: delay %v, recorded %v", i, ci, d, rec)
			}
			if d > cp.Delays[cp.WorstCorner] {
				t.Errorf("cross %d: WorstCorner %d but corner %d is worse", i, cp.WorstCorner, ci)
			}
		}
		if w := cp.Delays[cp.WorstCorner]; w > prev {
			t.Errorf("cross view not sorted: %v after %v", w, prev)
		} else {
			prev = w
		}
	}
	for i, cs := range mc.Stats {
		if cs.Name != points[i].Name {
			t.Errorf("stats %d named %q, want %q", i, cs.Name, points[i].Name)
		}
		if len(mc.Corners[i].Result.Paths) > 0 && cs.WorstDelay <= 0 {
			t.Errorf("stats %d: worst delay %v", i, cs.WorstDelay)
		}
	}
	// The base engine was never queried at its own point before the
	// sweep, so the first corner pays the one full build and the rest
	// are cheap shared respecializations.
	if mc.Stats[0].SharedBuild {
		t.Error("first corner's build marked shared")
	}
	for i := 1; i < len(mc.Stats); i++ {
		if !mc.Stats[i].SharedBuild {
			t.Errorf("corner %d paid a full rebuild", i)
		}
	}
}

// TestMultiCornerValidation pins the operating-point checks: nonsense
// points are rejected before any kernel table is built.
func TestMultiCornerValidation(t *testing.T) {
	e := cornerEngine(t, "fig4", 1, 0, 0)
	bad := [][]OperatingPoint{
		{},
		{{Temp: math.NaN(), VDD: 1.2}},
		{{Temp: 25, VDD: math.NaN()}},
		{{Temp: 25, VDD: -1.2}},
		{{Temp: 25, VDD: 1.2}, {Temp: 25, VDD: 1.2}},
	}
	for i, pts := range bad {
		if _, err := e.MultiCorner(pts); err == nil {
			t.Errorf("point set %d accepted: %v", i, pts)
		}
	}
	// A zero VDD resolves to the technology nominal instead of failing.
	mc, err := e.MultiCorner([]OperatingPoint{{Temp: 25}})
	if err != nil {
		t.Fatal(err)
	}
	// stalint:ignore floatcmp nominal-VDD resolution is an exact value passthrough
	if got, want := mc.Corners[0].Point.VDD, t130(t).VDD; got != want {
		t.Errorf("nominal VDD resolved to %v, want %v", got, want)
	}
}

// TestMultiCornerSteadyStateAllocs pins the sweep's scoring cost: once
// the corner tables are warm, arc scoring through a respecialized
// (rebanked) table must not allocate — the same zero-alloc contract
// the base table holds.
func TestMultiCornerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	tc := t130(t)
	points := cornerPoints(tc)
	e := cornerEngine(t, "fig4", 1, 0, 0)
	mc, err := e.MultiCorner(points)
	if err != nil {
		t.Fatal(err)
	}
	arcs := mc.Corners[0].Result.Paths[0].Arcs
	// Pin the engine at the fast corner with a respecialized (rebanked)
	// table, as the sweep builds for every corner after its first.
	if kt := pinRefolded(t, e, points[2].Temp, points[2].VDD); !kt.sharedBuild {
		t.Fatal("fast-corner table is not the shared respecialization")
	}
	buf := make([]float64, 0, len(arcs))
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = e.ArcDelaysInto(buf, arcs, true)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state scoring through a rebanked table allocates %.1f objects per query", allocs)
	}
}

// cornerFlipCircuit builds two independent cones whose worst-path
// ranking crosses between corners: a 14-stage INV chain and a 10-stage
// NAND2 chain (side pins tied to one shared input). Stacked pulldowns
// lose more speed toward the fast corner's raised supply than single
// transistors gain, so the chain lengths are tuned to bracket the
// crossing: the INV cone is the slow corner's worst path, the NAND2
// cone the fast corner's. Single-corner analysis at either point
// misses the other corner's critical path entirely.
func cornerFlipCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("cornerflip")
	for _, in := range []string{"A", "B", "S"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	prev := "A"
	for i := 0; i < 14; i++ {
		out := fmt.Sprintf("i%d", i)
		if _, err := c.AddGate(lib, "INV", out, map[string]string{"A": prev}); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	c.MarkOutput(prev)
	prev = "B"
	for j := 0; j < 10; j++ {
		out := fmt.Sprintf("s%d", j)
		if _, err := c.AddGate(lib, "NAND2", out, map[string]string{"A": prev, "B": "S"}); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	c.MarkOutput(prev)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMultiCornerWorstPathFlip is the regression the sweep exists for:
// a circuit whose critical path moves between corners. The slow
// corner's worst path must end in the INV cone, the fast corner's in
// the NAND2 cone — at every worker count — and the cross-corner table
// must expose the flip (every variant's own worst corner is still the
// slow corner, but the per-corner ranking crosses).
func TestMultiCornerWorstPathFlip(t *testing.T) {
	tc := t130(t)
	lib := cornerLib130(t)
	cir := cornerFlipCircuit(t)
	points := cornerPoints(tc)
	endpoint := func(p *TruePath) string { return p.Nodes[len(p.Nodes)-1] }
	for _, workers := range append([]int{1}, workerCounts()...) {
		e := New(cir, tc, lib, Options{Workers: workers})
		mc, err := e.MultiCorner(points)
		if err != nil {
			t.Fatal(err)
		}
		slowWorst := endpoint(mc.Corners[0].Result.Paths[0])
		fastWorst := endpoint(mc.Corners[2].Result.Paths[0])
		if slowWorst != "i13" {
			t.Errorf("w=%d: slow corner worst path ends at %s, want the INV cone (i13)", workers, slowWorst)
		}
		if fastWorst != "s9" {
			t.Errorf("w=%d: fast corner worst path ends at %s, want the NAND2 cone (s9)", workers, fastWorst)
		}
		if slowWorst == fastWorst {
			t.Errorf("w=%d: worst path did not flip between corners", workers)
		}
		// The cross table ranks by worst cross-corner delay, so the
		// INV-cone path (slow-corner critical) leads it, and both
		// cones' paths carry all three per-corner delays.
		if got := endpoint(mc.Cross[0].Path); got != "i13" {
			t.Errorf("w=%d: cross table leads with %s, want i13", workers, got)
		}
		sawStack := false
		for _, cp := range mc.Cross {
			if len(cp.Delays) != len(points) {
				t.Fatalf("w=%d: cross row has %d delays", workers, len(cp.Delays))
			}
			if cp.WorstCorner != 0 {
				t.Errorf("w=%d: %s worst at corner %d, want slow (0)", workers, cp.Path, cp.WorstCorner)
			}
			if endpoint(cp.Path) == "s9" && cp.Delays[2] > cp.Delays[1] {
				t.Errorf("w=%d: NAND2 cone fast delay %g exceeds typical %g", workers, cp.Delays[2], cp.Delays[1])
			}
			if endpoint(cp.Path) == "s9" {
				sawStack = true
			}
		}
		if !sawStack {
			t.Errorf("w=%d: NAND2 cone missing from the cross table", workers)
		}
	}
}
