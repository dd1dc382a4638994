package core

import (
	"fmt"
	"time"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/obs"
	"tpsta/internal/polyfit"
)

// Run-specialized delay kernels. An STA run fixes temperature and
// supply for its whole duration, and the circuit fixes every gate's
// output load, so the library's string-keyed 4-variable arc models can
// be resolved and partially evaluated once per engine:
//
//   - every (cell, pin, vector, edge) polynomial is specialized at the
//     run's (T, VDD) into a 2-variable (Fo, Tin) kernel
//     (polyfit.Specialize — bit-identical to the full model by
//     contract, so the parallel merge's byte-identity survives);
//   - every specialized kernel is then compiled into one table-wide
//     struct-of-arrays pool (polyfit.Pool): contiguous coefficient,
//     factor-op and normalization arrays addressed by dense kernel IDs;
//   - every (gate, pin, case, edge) arc resolves to a dense slot in
//     flat per-table arrays (delay ID, slew ID, output edge) through a
//     prebuilt per-cell pin→index map — no pointer forest, no linear
//     pin-name scan;
//   - every gate's equivalent fanout is precomputed from its load.
//
// After the build, ArcDelays resolves arcs by (gate ID, pin index,
// vector case, edge) and scores them through the pool's batched
// evaluator, BatchWidth lanes per round — no map lookups beyond the
// shared pin table, no string building, and with a caller-supplied
// scratch no allocations.

// kernelTable is an engine's run-specialized delay-kernel layer.
//
// The query path never touches a *polyfit.Specialized: an arc resolves
// to slot = slotBase[gate] + pinOff[gate][pin] + 2·(Case-1) + edge, and
// the slot arrays hand back dense pool IDs plus the memoized output
// edge. Gates of the same cell share one slot block, one pin map and
// one pin-offset table.
//
// stalint:shared — the table is fully built by newKernelTable before
// any query (parallel runs warm it before the fan-out) and is read-only
// afterwards, shared by every worker engine's shallow copy; the only
// post-construction mutation is the atomic query/batch counters.
type kernelTable struct {
	temp, vdd float64 // operating point the kernels are specialized at

	fo    []float64 // per gate ID: equivalent fanout at the gate's load
	foErr []error   // per gate ID: deferred load-resolution failure

	pool     *polyfit.Pool      // table-wide compiled kernel pool
	slotBase []int32            // per gate ID: base of the cell's slot block
	pinIdx   []map[string]int32 // per gate ID: shared per-cell pin name → pin index
	pinOff   [][]int32          // per gate ID: shared per-cell pin → slot offset (len inputs+1)
	delayID  []int32            // per slot: delay kernel pool ID, -1 when uncharacterized
	slewID   []int32            // per slot: slew kernel pool ID, -1 when uncharacterized
	outRise  []bool             // per slot: memoized Cell.OutputEdge direction
	outOK    []bool             // per slot: whether the vector propagates the edge
	// normShared marks slots whose slew kernel has bit-identical
	// normalization to the delay kernel (polyfit.Pool.NormShared), so
	// one pairwise-max-order power block serves both evaluations —
	// true for every arc of a library fitted over one characterization
	// grid, where only the auto-fitted orders differ between the two.
	normShared []bool

	// kernels holds the full build's specialized kernels in pool-ID
	// order: the base every corner table re-folds (Pool.RespecBatch).
	// Corner tables share it by reference, like the slot arrays.
	kernels []*polyfit.Specialized

	arcs  int           // kernels specialized (distinct cell arcs × edges)
	terms int           // surviving polynomial monomials across all kernels
	build time.Duration // one-time specialization cost
	// sharedBuild marks a table produced by newCornerTable: its slot
	// geometry, pin maps and pool term shapes are shared by reference
	// with the base table it was re-folded from.
	sharedBuild bool

	queries     obs.Counter // arc evaluations served (atomic: shared by workers)
	batchRounds obs.Counter // BatchWidth-lane rounds run by the batched evaluator
	batchLanes  obs.Counter // lanes filled across those rounds (= batched arc delays)
}

// cellBlock is one distinct cell's share of the table — its slot-array
// base and pin lookup structures — reused by every gate of that cell.
type cellBlock struct {
	base   int32
	pinIdx map[string]int32
	pinOff []int32
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
// — and only here — and each arc's models are specialized at the run's
// fixed (T, VDD), then compiled into the struct-of-arrays pool behind
// dense per-gate slot indexes. Per-gate load failures are deferred to
// query time (mirroring the lazy lookup this replaces); a model whose
// free variables are not exactly (Fo, Tin) fails the build outright.
//
// stalint:coldpath one build per operating point, amortized over every
// subsequent arc query
func newKernelTable(e *Engine, temp, vdd float64) (*kernelTable, error) {
	t0 := time.Now()
	kt := &kernelTable{temp: temp, vdd: vdd, pool: polyfit.NewPool()}
	fixed := map[string]float64{
		charlib.ModelVars[2]: temp, // "T"
		charlib.ModelVars[3]: vdd,  // "VDD"
	}
	n := len(e.Circuit.Gates)
	kt.fo = make([]float64, n)
	kt.foErr = make([]error, n)
	kt.slotBase = make([]int32, n)
	kt.pinIdx = make([]map[string]int32, n)
	kt.pinOff = make([][]int32, n)
	blocks := map[string]*cellBlock{}
	for _, g := range e.Circuit.Gates {
		kt.fo[g.ID], kt.foErr[g.ID] = e.Lib.Fo(g.Cell.Name, e.load(g))
		blk, ok := blocks[g.Cell.Name]
		if !ok {
			var err error
			if blk, err = newCellBlock(kt, e.Lib, g.Cell, fixed); err != nil {
				return nil, err
			}
			blocks[g.Cell.Name] = blk
		}
		kt.slotBase[g.ID] = blk.base
		kt.pinIdx[g.ID] = blk.pinIdx
		kt.pinOff[g.ID] = blk.pinOff
	}
	kt.build = time.Since(t0)
	if m := e.Opts.Metrics; m != nil {
		m.KernelBuildNs.Observe(kt.build)
	}
	if t := e.Opts.Tracer; t != nil {
		t.Emit(obs.Event{Kind: "kernels", N: int64(kt.arcs),
			Detail: fmt.Sprintf("%d terms, %d cells, %d pooled kernels", kt.terms, len(blocks), kt.pool.NumKernels())})
	}
	return kt, nil
}

// newCellBlock appends one cell's slot block to the table under
// construction: both edges of every (pin, vector) arc, resolved by
// string key once, specialized at the fixed operating point and added
// to the pool (delay then slew), with the slot arrays absorbing their
// IDs and memoized output edges. The pin lookup structures are built
// once for all gates of the cell. An uncharacterized arc gets ID -1
// and errors only if queried.
//
// stalint:coldpath per-cell pool compilation at table-build time
func newCellBlock(kt *kernelTable, lib *charlib.Library, c *cell.Cell, fixed map[string]float64) (*cellBlock, error) {
	blk := &cellBlock{
		base:   int32(len(kt.delayID)),
		pinIdx: make(map[string]int32, len(c.Inputs)),
		pinOff: make([]int32, len(c.Inputs)+1),
	}
	off := int32(0)
	for pi, pin := range c.Inputs {
		blk.pinIdx[pin] = int32(pi)
		blk.pinOff[pi] = off
		for _, vec := range c.Vectors(pin) {
			for _, rising := range [2]bool{false, true} {
				did, sid := int32(-1), int32(-1)
				if am, ok := lib.Arc(c.Name, pin, vec.Key(), rising); ok {
					d, s, err := specializeArc(am, c, pin, fixed)
					if err != nil {
						return nil, err
					}
					if did, err = kt.pool.Add(d); err != nil {
						return nil, err
					}
					if sid, err = kt.pool.Add(s); err != nil {
						return nil, err
					}
					kt.kernels = append(kt.kernels, d, s)
					kt.arcs++
					kt.terms += d.NumTerms() + s.NumTerms()
				}
				outRise, outOK := c.OutputEdge(vec, rising)
				kt.delayID = append(kt.delayID, did)
				kt.slewID = append(kt.slewID, sid)
				kt.outRise = append(kt.outRise, outRise)
				kt.outOK = append(kt.outOK, outOK)
				kt.normShared = append(kt.normShared, did >= 0 && kt.pool.NormShared(did, sid))
			}
			off += 2
		}
	}
	blk.pinOff[len(c.Inputs)] = off
	return blk, nil
}

// specializeArc partially evaluates one arc edge's delay and slew
// models at the fixed operating point.
func specializeArc(am *charlib.ArcModel, c *cell.Cell, pin string, fixed map[string]float64) (d, s *polyfit.Specialized, err error) {
	if d, err = am.Delay.Specialize(fixed); err != nil {
		return nil, nil, err
	}
	if err := checkKernelVars(c, pin, d); err != nil {
		return nil, nil, err
	}
	if s, err = am.Slew.Specialize(fixed); err != nil {
		return nil, nil, err
	}
	return d, s, nil
}

// newCornerTable builds a corner table from an existing one: only
// the per-corner term bank is recomputed (one fused Pool.RespecBatch
// pass over the full build's kernels); the slot geometry, pin maps,
// fanout table and term shapes are shared by reference with the base,
// read-only. The result is bit-identical to a full newKernelTable
// build at the same point — the re-fold is the same arithmetic
// Specialize performs and RespecBatch verifies the sharing contract
// kernel by kernel — which the differential suite pins.
//
// stalint:coldpath one respecialization per additional operating point
func newCornerTable(e *Engine, base *kernelTable, temp, vdd float64) (*kernelTable, error) {
	t0 := time.Now()
	fixed := map[string]float64{
		charlib.ModelVars[2]: temp, // "T"
		charlib.ModelVars[3]: vdd,  // "VDD"
	}
	pool, err := base.pool.RespecBatch(base.kernels, fixed)
	if err != nil {
		return nil, err
	}
	kt := &kernelTable{
		temp: temp, vdd: vdd,
		fo: base.fo, foErr: base.foErr,
		pool:     pool,
		slotBase: base.slotBase, pinIdx: base.pinIdx, pinOff: base.pinOff,
		delayID: base.delayID, slewID: base.slewID,
		outRise: base.outRise, outOK: base.outOK, normShared: base.normShared,
		kernels: base.kernels,
		arcs:    base.arcs, terms: base.terms,
		sharedBuild: true,
	}
	kt.build = time.Since(t0)
	if m := e.Opts.Metrics; m != nil {
		m.CornerBuildNs.Observe(kt.build)
	}
	if t := e.Opts.Tracer; t != nil {
		t.Emit(obs.Event{Kind: "kernels", N: int64(kt.arcs),
			Detail: fmt.Sprintf("respecialized at (%g C, %g V) from (%g C, %g V)", temp, vdd, base.temp, base.vdd)})
	}
	return kt, nil
}

// checkKernelVars verifies a specialized arc model is the 2-variable
// (Fo, Tin) kernel ArcDelays evaluates positionally.
func checkKernelVars(c *cell.Cell, pin string, s *polyfit.Specialized) error {
	vars := s.Vars()
	if len(vars) != 2 || vars[0] != charlib.ModelVars[0] || vars[1] != charlib.ModelVars[1] {
		return fmt.Errorf("core: specialized arc model for %s/%s has free variables %v, want [%s %s]",
			c.Name, pin, vars, charlib.ModelVars[0], charlib.ModelVars[1])
	}
	return nil
}

// slot resolves one name-keyed arc — gate g entered on pin under vec —
// to the dense slot pair of its (pin, vector case), checking both
// against the gate's slot block, and then addresses it through arcSlot.
// Search-produced vectors carry the pin index memoized
// (cell.Vector.PinIndex), so resolution is pure integer arithmetic;
// hand-built vectors fall back to the shared per-cell pin map.
//
// stalint:noalloc arc resolution runs per scored arc on the query path
func (kt *kernelTable) slot(g *netlist.Gate, pin string, vec *cell.Vector) (int32, error) {
	gid := g.ID
	var pi int32
	if ix := vec.PinIndex(); ix >= 0 && ix < len(g.Cell.Inputs) && g.Cell.Inputs[ix] == pin {
		pi = int32(ix)
	} else {
		var ok bool
		pi, ok = kt.pinIdx[gid][pin]
		if !ok {
			// stalint:ignore noalloc terminal error path; the query is abandoned, not retried
			return -1, fmt.Errorf("core: arc pin %s/%s unknown to the kernel table", g.Name, pin)
		}
	}
	off := kt.pinOff[gid]
	if vectors := (off[pi+1] - off[pi]) / 2; vec.Case < 1 || int32(vec.Case) > vectors {
		// stalint:ignore noalloc terminal error path; the query is abandoned, not retried
		return -1, fmt.Errorf("core: arc %s/%s vector case %d unknown to the kernel table", g.Name, pin, vec.Case)
	}
	return kt.arcSlot(arcRef{gate: int32(gid), pin: uint8(pi), vec: uint8(vec.Case - 1)}), nil
}

// arcSlot addresses arc a, which must exist in the gate's cell, by
// integer arithmetic alone: the returned index is the fall-edge slot of
// its (pin, vector) pair and the rise-edge slot is one past it
// (edgeIndex). Both the search's arcs and slot's name-keyed arcs
// resolve here, against the block layout of newCellBlock: pins in
// cell-input order, each pin's vectors in Case order (an arcRef's vec
// is Case-1, as in the search graph), two edge slots per vector.
//
// stalint:noalloc per-arc resolution of the K-worst candidate check
func (kt *kernelTable) arcSlot(a arcRef) int32 {
	return kt.slotBase[a.gate] + kt.pinOff[a.gate][a.pin] + 2*int32(a.vec)
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
func (kt *kernelTable) arcStep(si int32, gid int, tin float64, pw, one []float64) float64 {
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
// geometry, fresh coefficient banks).
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
	ks := KernelStats{
		Arcs:         st.table.arcs,
		Terms:        st.table.terms,
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
