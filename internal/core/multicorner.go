package core

import (
	"fmt"
	"math"
	"sort"

	"tpsta/internal/num"
)

// Batch multi-corner analysis. Production sign-off asks the engine's
// question — which path is the true worst, and under which
// sensitization vector — at every operating corner, and the critical
// path genuinely moves between corners, so each corner needs its own
// search. Running N independent engines pays N full kernel-table
// builds and N scheduler passes; MultiCorner instead:
//
//   - compiles the corner-invariant state once — netlist topology,
//     load cache, search graph, the kernel slots and the polyfit.Pool
//     terms and normalization — and re-folds only each kernel's
//     fixed-variable powers per corner (newCornerTable +
//     polyfit Pool.RespecBatch): N corner tables for roughly the
//     build cost of one plus N cheap re-folds, all read-only before
//     the fan-out;
//   - schedules (corner × launch-input shard) units through one
//     work-stealing pool, with per-corner step budgets and per-corner
//     abort flags, so idle workers drain
//     whichever corner still has work instead of a barrier between
//     corners;
//   - merges each corner with the existing deterministic merge
//     (mergeOutcomes), so every corner's result is byte-identical to
//     running that corner alone, at any worker count, whenever the run
//     is untruncated;
//   - cross-references the per-corner results into worst-corner-per-
//     path and per-corner worst-delay reports (CrossCornerPath,
//     CornerStats).
//
// DESIGN.md §16 documents the corner bank layout and the scheduling
// and merge contracts.

// OperatingPoint is one corner of a multi-corner sweep: a temperature
// in °C and an absolute supply voltage. A zero VDD selects the
// technology nominal (like Options.VDD); the temperature is taken
// literally. An empty Name is filled from the point.
type OperatingPoint struct {
	Name string  `json:"name"`
	Temp float64 `json:"temp"`
	VDD  float64 `json:"vdd"`
}

// CornerResult pairs one corner with its full search result — exactly
// the Result an independent engine at that operating point would
// produce.
type CornerResult struct {
	Point  OperatingPoint
	Result *Result
}

// CornerStats is the per-corner observability row of a sweep.
type CornerStats struct {
	// Name, Temp and VDD identify the corner.
	Name string  `json:"name"`
	Temp float64 `json:"temp"`
	VDD  float64 `json:"vdd"`
	// BuildSeconds is this corner's kernel-table cost; SharedBuild
	// marks a table respecialized from another corner's build (shared
	// slot geometry) rather than compiled from scratch.
	BuildSeconds float64 `json:"buildSeconds"`
	SharedBuild  bool    `json:"sharedBuild"`
	// Steps and Paths are the corner's search totals; WorstDelay its
	// worst recorded path delay (the corner's WNS against a zero
	// required time).
	Steps      int64   `json:"steps"`
	Paths      int64   `json:"paths"`
	WorstDelay float64 `json:"worstDelay"`
	// Truncated reports whether this corner's search hit a cap.
	Truncated bool `json:"truncated"`
	// BusySeconds is the wall-clock search time attributed to the
	// corner: its unit time summed over the workers (not
	// deterministic).
	BusySeconds float64 `json:"busySeconds"`
}

// CrossCornerPath is one distinct path variant of the sweep with its
// delay at every corner. Path is the recorded variant from the first
// corner (in sweep order) that found it; Delays[i] is its delay at
// corner i — the recorded value where corner i found the variant too,
// a recorded-arc rescore through corner i's kernels otherwise.
type CrossCornerPath struct {
	Path *TruePath
	// Delays is indexed like the sweep's corner list.
	Delays []float64
	// WorstCorner indexes the corner with the largest delay (lowest
	// index wins exact ties).
	WorstCorner int
}

// MultiCornerResult is the outcome of one batch sweep.
type MultiCornerResult struct {
	// Corners holds each corner's full result, in sweep order.
	Corners []CornerResult
	// Cross lists every distinct path variant of the sweep ordered by
	// its worst cross-corner delay (descending), each with per-corner
	// delays and its worst corner.
	Cross []CrossCornerPath
	// Stats is the per-corner observability table, in sweep order.
	Stats []CornerStats
	// Parallel is the shared pool's snapshot.
	Parallel ParallelStats
}

// MultiCorner runs the full true-path enumeration at every operating
// point of one batch: the corner-invariant engine state is built once,
// per-corner kernel banks are specialized into the shared pool layout,
// and all (corner × launch input) shards are drained through one
// work-stealing pool. Each corner's Result is byte-identical to an
// independent engine run at that point (at any worker count, whenever
// untruncated; a MaxSteps budget caps each corner separately at
// exactly MaxSteps).
func (e *Engine) MultiCorner(points []OperatingPoint) (*MultiCornerResult, error) {
	return e.multiCorner(points, 0)
}

// MultiCornerKWorst is MultiCorner over the K-worst search: every
// corner reports its k worst true paths.
func (e *Engine) MultiCornerKWorst(points []OperatingPoint, k int) (*MultiCornerResult, error) {
	if k <= 0 {
		k = 1
	}
	return e.multiCorner(points, k)
}

// normalizePoints validates and canonicalizes a sweep's corner list:
// names filled, nominal VDD resolved, NaN/non-positive points and
// duplicates rejected before any table is built at a nonsense point.
func (e *Engine) normalizePoints(points []OperatingPoint) ([]OperatingPoint, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: MultiCorner needs at least one operating point")
	}
	out := make([]OperatingPoint, len(points))
	for i, p := range points {
		if math.IsNaN(p.Temp) || math.IsInf(p.Temp, 0) {
			return nil, fmt.Errorf("core: operating point %d (%q): temperature %v is not a finite number", i, p.Name, p.Temp)
		}
		if num.IsZero(p.VDD) && e.Tech != nil {
			p.VDD = e.Tech.VDD
		}
		if math.IsNaN(p.VDD) || p.VDD <= 0 {
			return nil, fmt.Errorf("core: operating point %d (%q): VDD %v is not a positive voltage", i, p.Name, p.VDD)
		}
		if p.Name == "" {
			p.Name = fmt.Sprintf("T%g_V%g", p.Temp, p.VDD)
		}
		for j := 0; j < i; j++ {
			// stalint:ignore floatcmp duplicate corners are exact-value duplicates
			if out[j].Temp == p.Temp && out[j].VDD == p.VDD {
				return nil, fmt.Errorf("core: operating points %d (%q) and %d (%q) are the same (T=%g, VDD=%g)",
					j, out[j].Name, i, p.Name, p.Temp, p.VDD)
			}
		}
		out[i] = p
	}
	return out, nil
}

// cornerEngines builds the per-corner kernel states — the first
// distinct point pays one full table build, every further point a
// cheap respecialization from it — and one shallow engine clone per
// corner pinned to its state. All returned state is read-only before
// the caller fans out.
func (e *Engine) cornerEngines(points []OperatingPoint) ([]*Engine, []*kernelState, error) {
	if _, err := e.Circuit.TopoGates(); err != nil {
		return nil, nil, err
	}
	e.precomputeLoads()
	if _, err := e.searchGraph(); err != nil {
		return nil, nil, err
	}
	engines := make([]*Engine, len(points))
	states := make([]*kernelState, len(points))
	var base *kernelTable
	for i, p := range points {
		st := (*kernelState)(nil)
		if e.Lib != nil {
			st = e.kernelStateAt(base, p.Temp, p.VDD)
			if st.err != nil {
				return nil, nil, st.err
			}
			if base == nil {
				base = st.table
			}
		}
		ce := *e
		ce.Opts.Temp, ce.Opts.VDD = p.Temp, p.VDD
		ce.kern = st
		ce.ksc = kernelScratch{}
		ce.scratch = nil
		engines[i] = &ce
		states[i] = st
	}
	return engines, states, nil
}

// multiCorner is the shared body of MultiCorner and MultiCornerKWorst.
func (e *Engine) multiCorner(points []OperatingPoint, k int) (*MultiCornerResult, error) {
	if err := e.checkInputs(); err != nil {
		return nil, err
	}
	points, err := e.normalizePoints(points)
	if err != nil {
		return nil, err
	}
	engines, states, err := e.cornerEngines(points)
	if err != nil {
		return nil, err
	}
	// Every (worker, corner) pair keeps its own persistent searcher, so
	// each corner's decision-tree partition — and therefore its merged
	// result — is exactly the single-corner search's, run per corner.
	results, busy, par, err := e.runPool(engines, len(e.Circuit.Inputs), k, "multicorner", runInputUnit)
	if err != nil {
		return nil, err
	}
	nc := len(points)
	out := &MultiCornerResult{
		Corners:  make([]CornerResult, nc),
		Stats:    make([]CornerStats, nc),
		Parallel: par,
	}
	for i, res := range results {
		out.Corners[i] = CornerResult{Point: points[i], Result: res}
		cs := CornerStats{
			Name: points[i].Name, Temp: points[i].Temp, VDD: points[i].VDD,
			Steps:       res.Steps,
			Paths:       int64(len(res.Paths)),
			Truncated:   res.Truncated,
			BusySeconds: busy[i].Seconds(),
		}
		if st := states[i]; st != nil && st.table != nil {
			cs.BuildSeconds = st.table.build.Seconds()
			cs.SharedBuild = st.table.sharedBuild
		}
		if len(res.Paths) > 0 {
			cs.WorstDelay = res.Paths[0].WorstDelay()
		}
		out.Stats[i] = cs
		if m := e.Opts.Metrics; m != nil {
			m.CornerSearchNs.Observe(busy[i])
		}
	}
	out.Cross = crossCorners(engines, results)
	return out, nil
}

// crossCorners unions the per-corner path sets into the sweep's
// worst-corner-per-path view. Variants are identified by their
// 128-bit path signature; a variant a corner did not itself record is
// rescored through that corner's kernels along the recorded arcs
// (scoring errors are swallowed to a zero delay, exactly like emit's
// recorded-delay path). The union keeps the canonical order: corners
// in sweep order, each corner's paths in its merged order, then one
// deterministic sort by worst cross-corner delay.
//
// stalint:deterministic the cross-corner report must be as
// schedule-invariant as the per-corner merges it is built from
func crossCorners(engines []*Engine, results []*Result) []CrossCornerPath {
	nc := len(results)
	total := 0
	for _, res := range results {
		total += len(res.Paths)
	}
	byCorner := make([]map[sig128]*TruePath, nc)
	for ci, res := range results {
		m := make(map[sig128]*TruePath, len(res.Paths))
		for _, p := range res.Paths {
			m[p.sig] = p
		}
		byCorner[ci] = m
	}
	seen := make(map[sig128]struct{}, total)
	var cross []CrossCornerPath
	for ci, res := range results {
		for _, p := range res.Paths {
			if _, dup := seen[p.sig]; dup {
				continue
			}
			seen[p.sig] = struct{}{}
			cp := CrossCornerPath{Path: p, Delays: make([]float64, nc)}
			for cj := 0; cj < nc; cj++ {
				if cj == ci {
					cp.Delays[cj] = p.WorstDelay()
				} else if q, ok := byCorner[cj][p.sig]; ok {
					cp.Delays[cj] = q.WorstDelay()
				} else {
					cp.Delays[cj] = engines[cj].rescorePath(p)
				}
			}
			for cj, dl := range cp.Delays {
				if dl > cp.Delays[cp.WorstCorner] {
					cp.WorstCorner = cj
				}
			}
			cross = append(cross, cp)
		}
	}
	sortCross(cross)
	return cross
}

// sortCross orders the cross-corner view by worst cross-corner delay
// descending, ties broken by the canonical path identity (identityLess)
// — the same strict total order the per-corner merge uses, so the
// report is identical at any worker count.
func sortCross(cross []CrossCornerPath) {
	sort.SliceStable(cross, func(i, j int) bool {
		a, b := &cross[i], &cross[j]
		wa, wb := a.Delays[a.WorstCorner], b.Delays[b.WorstCorner]
		// stalint:ignore floatcmp exact comparison keeps the order total
		if wa != wb {
			return wa > wb
		}
		return identityLess(a.Path, b.Path)
	})
}

// rescorePath evaluates one recorded path's worst launch-edge delay
// through this engine's kernels (the corner the path was not found
// at). Scoring errors are swallowed to a zero-delay edge, mirroring
// the recorded-delay behavior of emit.
func (e *Engine) rescorePath(p *TruePath) float64 {
	worst := 0.0
	for _, edge := range [2]struct{ ok, rising bool }{{p.RiseOK, true}, {p.FallOK, false}} {
		if !edge.ok {
			continue
		}
		if ds, err := e.ArcDelaysInto(e.scratch, p.Arcs, edge.rising); err == nil {
			e.scratch = ds
			if d := sumDelays(ds); d > worst {
				worst = d
			}
		}
	}
	return worst
}
