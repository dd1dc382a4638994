package core

import (
	"fmt"
	"slices"
	"time"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/obs"
	"tpsta/internal/polyfit"
)

// Run-specialized delay kernels. An STA run fixes temperature and
// supply for its whole duration, and the circuit fixes every gate's
// output load, so the library's string-keyed 4-variable arc models can
// be resolved and partially evaluated once per engine:
//
//   - every (cell, pin, vector, edge) model is compiled at the run's
//     (T, VDD) into a 2-variable (Fo, Tin) kernel of one table-wide
//     struct-of-arrays pool (polyfit.Pool.Add — bit-identical to the
//     full model by contract, so the parallel merge's byte-identity
//     survives): contiguous coefficient and normalization arrays
//     addressed by dense kernel IDs;
//   - every arc resolves to a dense slot through the search graph's
//     vector IDs (DESIGN.md §17): slot 2·vecID + edge holds the arc's
//     delay and slew kernel IDs, and the graph's vector holds its
//     output edge — no pointer forest, no pin-name lookup;
//   - every gate's equivalent fanout is precomputed from its load.
//
// After the build, path scoring resolves arcs by (gate ID, pin index,
// vector case, edge) and scores them through the pool's batched
// evaluator, BatchWidth lanes per round — no map lookups, no string
// building, and with a caller-supplied scratch no allocations.

// kernelTable is an engine's run-specialized delay-kernel layer.
//
// An arc a entered on edge e (edgeIndex) resolves to slot 2·vecID(a) +
// e over the search graph's vectors; the slot arrays hand back dense
// pool IDs. The vectors of one cell are compiled once, for every gate
// of that cell.
//
// stalint:shared — the table is fully built by newKernelTable before
// any query (parallel runs warm it before the fan-out) and is read-only
// afterwards, shared by every worker engine's shallow copy; the only
// post-construction mutation is the atomic query/batch counters.
type kernelTable struct {
	temp, vdd float64 // operating point the kernels are specialized at

	fo    []float64 // per gate ID: equivalent fanout at the gate's load
	foErr []error   // per gate ID: deferred load-resolution failure

	pool    *polyfit.Pool // table-wide compiled kernel pool
	delayID []int32       // per slot: delay kernel pool ID, -1 when uncharacterized
	slewID  []int32       // per slot: slew kernel pool ID, -1 when uncharacterized
	// normShared marks slots whose slew kernel has bit-identical
	// normalization to the delay kernel (polyfit.Pool.NormShared), so
	// one pairwise-max-order power block serves both evaluations —
	// true for every arc of a library fitted over one characterization
	// grid, where only the auto-fitted orders differ between the two.
	normShared []bool

	build time.Duration // one-time compilation cost
	// sharedBuild marks a table produced by newCornerTable: its slot
	// arrays and pool geometry are shared by reference with the base
	// table it was re-folded from.
	sharedBuild bool

	queries     obs.Counter // arc evaluations served (atomic: shared by workers)
	batchRounds obs.Counter // BatchWidth-lane rounds run by the batched evaluator
	batchLanes  obs.Counter // lanes filled across those rounds (= batched arc delays)
}

// kernelState caches one build outcome — table or sticky error — at the
// operating point it was attempted for, so a failing library is
// reported (or, in emit, swallowed) per query without rebuilding.
// Worker engine copies share the pointer.
type kernelState struct {
	temp, vdd float64
	table     *kernelTable
	err       error
}

// edgeIndex maps an input transition direction to a kernel slot.
func edgeIndex(rising bool) int {
	if rising {
		return 1
	}
	return 0
}

// newKernelTable resolves every (gate, pin, vector, edge) arc of the
// circuit against the library: string keys are built and looked up here
// — and only here — once per distinct cell of the search graph, and
// each arc's models are compiled at the run's fixed (T, VDD) into the
// pool behind the graph's vector IDs. Per-gate load failures are
// deferred to query time (mirroring the lazy lookup this replaces); a
// model over other variables than charlib.ModelVars, in that order,
// fails the build outright.
//
// stalint:coldpath one build per operating point, amortized over every
// subsequent arc query
func newKernelTable(e *Engine, temp, vdd float64) (*kernelTable, error) {
	gr, err := e.searchGraph()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	slots := 2 * len(gr.vecs)
	kt := &kernelTable{
		temp: temp, vdd: vdd, pool: polyfit.NewPool(),
		delayID: make([]int32, slots), slewID: make([]int32, slots), normShared: make([]bool, slots),
	}
	fixed := fixedAt(temp, vdd)
	n := len(e.Circuit.Gates)
	kt.fo = make([]float64, n)
	kt.foErr = make([]error, n)
	compiled := make([]bool, len(gr.cells))
	for _, g := range e.Circuit.Gates {
		kt.fo[g.ID], kt.foErr[g.ID] = e.Lib.Fo(g.Cell.Name, e.load(g))
		if ci := gr.gates[g.ID].cell; !compiled[ci] {
			compiled[ci] = true
			if err := newCellKernels(kt, e.Lib, g.Cell, &gr.cells[ci], fixed); err != nil {
				return nil, err
			}
		}
	}
	kt.build = time.Since(t0)
	if m := e.Opts.Metrics; m != nil {
		m.KernelBuildNs.Observe(kt.build)
	}
	if t := e.Opts.Tracer; t != nil {
		t.Emit(obs.Event{Kind: "kernels", N: int64(kt.pool.NumKernels() / 2),
			Detail: fmt.Sprintf("%d terms, %d cells, %d pooled kernels", kt.pool.NumTerms(), len(gr.cells), kt.pool.NumKernels())})
	}
	return kt, nil
}

// fixedAt names the values of the arc models' fixed variables
// for polyfit.Pool.
func fixedAt(temp, vdd float64) map[string]float64 {
	return map[string]float64{
		charlib.ModelVars[2]: temp, // "T"
		charlib.ModelVars[3]: vdd,  // "VDD"
	}
}

// newCellKernels fills the slots of one distinct cell c of the table
// under construction, whose vectors the graph compiled as gc: both
// edges of every (pin, vector) arc, resolved by string key once and
// added to the pool (delay then slew). An uncharacterized arc gets ID
// -1 and errors only if queried.
//
// stalint:coldpath per-cell pool compilation at table-build time
func newCellKernels(kt *kernelTable, lib *charlib.Library, c *cell.Cell, gc *graphCell, fixed map[string]float64) error {
	for pi, pin := range c.Inputs {
		for vi, vec := range gc.vectors[pi] {
			for ei, rising := range [2]bool{false, true} {
				si := 2*(gc.vecOff[pi]+int32(vi)) + int32(ei)
				kt.delayID[si], kt.slewID[si] = -1, -1
				am, ok := lib.Arc(c.Name, pin, vec.Key(), rising)
				if !ok {
					continue
				}
				for _, m := range [2]*polyfit.Model{am.Delay, am.Slew} {
					if !slices.Equal(m.Vars, charlib.ModelVars) {
						return fmt.Errorf("core: arc model for %s/%s has variables %v, want %v", c.Name, pin, m.Vars, charlib.ModelVars)
					}
				}
				did, err := kt.pool.Add(am.Delay, fixed)
				if err != nil {
					return err
				}
				sid, err := kt.pool.Add(am.Slew, fixed)
				if err != nil {
					return err
				}
				kt.delayID[si], kt.slewID[si] = did, sid
				kt.normShared[si] = kt.pool.NormShared(did, sid)
			}
		}
	}
	return nil
}

// newCornerTable builds a corner table from an existing one: only
// the pool's fixed-variable powers are recomputed (Pool.RespecBatch);
// the slot arrays, fanout table and the rest of the pool are shared by
// reference with the base, read-only. The result is
// bit-identical to a full newKernelTable build at the same point — the
// re-fold is the arithmetic Pool.Add performs — which the differential
// suite pins.
//
// stalint:coldpath one respecialization per additional operating point
func newCornerTable(e *Engine, base *kernelTable, temp, vdd float64) (*kernelTable, error) {
	t0 := time.Now()
	pool, err := base.pool.RespecBatch(fixedAt(temp, vdd))
	if err != nil {
		return nil, err
	}
	kt := &kernelTable{
		temp: temp, vdd: vdd,
		fo: base.fo, foErr: base.foErr,
		pool:    pool,
		delayID: base.delayID, slewID: base.slewID, normShared: base.normShared,
		sharedBuild: true,
	}
	kt.build = time.Since(t0)
	if m := e.Opts.Metrics; m != nil {
		m.CornerBuildNs.Observe(kt.build)
	}
	if t := e.Opts.Tracer; t != nil {
		t.Emit(obs.Event{Kind: "kernels", N: int64(kt.pool.NumKernels() / 2),
			Detail: fmt.Sprintf("respecialized at (%g C, %g V) from (%g C, %g V)", temp, vdd, base.temp, base.vdd)})
	}
	return kt, nil
}

// resolve turns the name-keyed arcs of a public query into arc refs in
// the scratch, through the search graph gr: the pin by its position
// among the gate's cell inputs, the vector by its Case. It stops at the
// first arc that does not resolve and returns the refs before it with
// that arc's error — a failed load first, as the lane pass checks it,
// so the path's errors surface arc by arc in path order.
//
// stalint:noalloc arc resolution runs per scored arc of a public query
func (sc *kernelScratch) resolve(gr *searchGraph, kt *kernelTable, arcs []Arc) ([]arcRef, error) {
	if cap(sc.refs) < len(arcs) {
		// stalint:alloc-ok the ref buffer grows to the longest path once, then is reused
		sc.refs = make([]arcRef, len(arcs))
	}
	refs := sc.refs[:0]
	for i := range arcs {
		g, pin, vcase := arcs[i].Gate, arcs[i].Pin, arcs[i].Vec.Case
		if err := kt.foErr[g.ID]; err != nil {
			return refs, err
		}
		pi := slices.Index(g.Cell.Inputs, pin)
		if pi < 0 {
			// stalint:ignore noalloc terminal error path; the query is abandoned, not retried
			return refs, fmt.Errorf("core: arc pin %s/%s unknown to the kernel table", g.Name, pin)
		}
		if lo, hi := gr.vecRange(int32(g.ID), uint8(pi)); vcase < 1 || int32(vcase) > hi-lo {
			// stalint:ignore noalloc terminal error path; the query is abandoned, not retried
			return refs, fmt.Errorf("core: arc %s/%s vector case %d unknown to the kernel table", g.Name, pin, vcase)
		}
		refs = append(refs, arcRef{gate: int32(g.ID), pin: uint8(pi), vec: uint8(vcase - 1)})
	}
	return refs, nil
}

// arcStep is the per-arc kernel step of the slew chain: it builds slot
// si's (Fo, Tin) power block for gate gid at input slew tin into pw and
// returns the slew leaving the arc — through the same block when the
// slew kernel shares the delay kernel's normalization (every arc of a
// single-grid library), by a scalar evaluation on the spare block one
// otherwise. The arc's delay is SumLane of its delay kernel on pw. Path
// scoring (arcDelaysBatched) and the K-worst arrival (arrive) both
// take this step, so an arrival and ArcDelaysInto's total for the same
// arcs are bit-identical.
//
// stalint:noalloc per-arc step of both the scoring query and the
// K-worst candidate check
func (kt *kernelTable) arcStep(si, gid int32, tin float64, pw, one []float64) float64 {
	did, sid := kt.delayID[si], kt.slewID[si]
	if kt.normShared[si] {
		kt.pool.PowLanePair(did, sid, kt.fo[gid], tin, pw)
		return kt.pool.SumLane(sid, pw)
	}
	kt.pool.PowLane(did, kt.fo[gid], tin, pw)
	return kt.pool.EvalOne(sid, kt.fo[gid], tin, one)
}

// kernels returns the engine's kernel table, building it on first use
// or after an operating-point change. Engines are single-threaded;
// parallel runs warm the table before the fan-out (warmKernels) so
// every worker shares one read-only build, and a corner sweep builds
// its per-corner tables itself (cornerEngines).
func (e *Engine) kernels() (*kernelTable, error) {
	// The table is keyed on the exact values it was built at; any
	// representational change of the operating point is a rebuild.
	// stalint:ignore floatcmp cache identity wants the exact build-time values
	if st := e.kern; st != nil && st.temp == e.Opts.Temp && st.vdd == e.Opts.VDD {
		return st.table, st.err
	}
	e.kern = e.kernelStateAt(nil, e.Opts.Temp, e.Opts.VDD)
	return e.kern.table, e.kern.err
}

// kernelStateAt builds the kernel state at (temp, vdd): a full
// newKernelTable build, or — given another operating point's table as
// base — a respecialization of it (newCornerTable: shared slot
// arrays, fresh fixed-variable powers).
//
// stalint:coldpath table build, paid once per operating point and
// amortized over every query at that point
func (e *Engine) kernelStateAt(base *kernelTable, temp, vdd float64) *kernelState {
	st := &kernelState{temp: temp, vdd: vdd}
	if base != nil {
		st.table, st.err = newCornerTable(e, base, temp, vdd)
	} else {
		st.table, st.err = newKernelTable(e, temp, vdd)
	}
	return st
}

// warmKernels pre-builds the kernel table (and with it the load cache)
// before a parallel fan-out, so the worker engines' shallow copies
// share one read-only table. A build failure is cached too: queries
// surface — or, for recorded-path delays, swallow — it exactly where
// the lazy lookup would have.
func (e *Engine) warmKernels() {
	if e.Lib == nil {
		return
	}
	_, _ = e.kernels()
}

// KernelStats describes the engine's delay-kernel layer (zero value
// until the first delay query builds it).
type KernelStats struct {
	// Arcs counts the specialized (cell, pin, vector, edge) kernels.
	Arcs int `json:"arcs"`
	// Terms counts the surviving polynomial monomials across kernels.
	Terms int `json:"terms"`
	// BuildSeconds is the one-time specialization cost.
	BuildSeconds float64 `json:"buildSeconds"`
	// ArcQueries counts arc delay/slew evaluations served by the
	// kernels for path scoring (ArcDelays and recorded paths),
	// aggregated across parallel workers. The K-worst candidate
	// checks' arrival steps are not counted.
	ArcQueries int64 `json:"arcQueries"`
	// PoolKernels counts the distinct kernels compiled into the
	// struct-of-arrays pool (delay and slew, per distinct cell).
	PoolKernels int `json:"poolKernels"`
	// PoolTerms and PoolOps size the pool's flat coefficient and
	// factor-op arrays.
	PoolTerms int `json:"poolTerms"`
	PoolOps   int `json:"poolOps"`
	// BatchRounds counts the BatchWidth-lane rounds the batched
	// evaluator ran; BatchLanes the lanes they carried. Their ratio —
	// BatchFill — is the mean lane occupancy per round.
	BatchRounds int64 `json:"batchRounds"`
	BatchLanes  int64 `json:"batchLanes"`
	// BatchFill is BatchLanes / (BatchRounds × BatchWidth): 1.0 means
	// every round ran fully occupied, lower values mean short paths
	// left tail lanes empty.
	BatchFill float64 `json:"batchFill"`
}

// KernelStats returns the kernel-layer snapshot of the engine.
func (e *Engine) KernelStats() KernelStats {
	st := e.kern
	if st == nil || st.table == nil {
		return KernelStats{}
	}
	// Each characterized arc edge compiles one delay and one slew
	// kernel, and every surviving monomial is one pooled term.
	ks := KernelStats{
		Arcs:         st.table.pool.NumKernels() / 2,
		Terms:        st.table.pool.NumTerms(),
		BuildSeconds: st.table.build.Seconds(),
		ArcQueries:   st.table.queries.Load(),
		PoolKernels:  st.table.pool.NumKernels(),
		PoolTerms:    st.table.pool.NumTerms(),
		PoolOps:      st.table.pool.NumOps(),
		BatchRounds:  st.table.batchRounds.Load(),
		BatchLanes:   st.table.batchLanes.Load(),
	}
	if ks.BatchRounds > 0 {
		ks.BatchFill = float64(ks.BatchLanes) / float64(ks.BatchRounds*polyfit.BatchWidth)
	}
	return ks
}
