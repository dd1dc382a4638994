package core

import (
	"runtime"
	"sync"
	"time"

	"tpsta/internal/obs"
)

// Parallel execution of the true-path search. The search is sharded by
// launch point — one shard per primary input for Enumerate/KWorst, one
// per first-hop sensitization vector for EnumerateCourse — and the
// shards are spread over a work-stealing pool (steal.go): idle workers
// steal whole untouched shards, and when none remain busy searchers
// donate unexplored DFS subtrees, so a single hot launch cone spreads
// across the pool instead of serializing on one worker. Correctness
// rests on the donation protocol partitioning each shard's decision
// tree exactly (steal.go, search.go:maybeDonate) and on the reduction
// being a deterministic merge:
//
//   - counters are summed (the donation accounting keeps the sums equal
//     to the serial counters whenever the run is untruncated);
//   - variants recorded twice across workers (possible only when a
//     shard was split by donation) are collapsed by their 128-bit path
//     signature — duplicates are value-identical, so any copy survives;
//   - the strongest truncation reason wins, exactly like the serial
//     severity order;
//   - recorded paths are ordered by the canonical total order
//     (pathBetter), so the output cannot depend on worker count,
//     stealing or completion order.
//
// Under a MaxSteps budget all workers draw on one shared global step
// budget, so a truncated parallel run performs exactly the serial step
// total; which decisions land inside the budget then depends on
// scheduling, so truncated results are valid but not worker-count
// invariant. See DESIGN.md §8 and §11.

// effectiveWorkers resolves Options.Workers (0 = GOMAXPROCS).
func (e *Engine) effectiveWorkers() int {
	if w := e.Opts.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelStats describes the worker pool of the engine's most recent
// parallel run (zero value until one ran). Unlike SearchStats it
// carries wall-clock measurements and scheduling counters, so it is
// not deterministic.
type ParallelStats struct {
	// Workers is the pool size used.
	Workers int `json:"workers"`
	// Shards is the number of root work units the search was split
	// into (launch inputs, or first-hop vectors for a course).
	Shards int `json:"shards"`
	// Units is the total number of scheduled work units: the root
	// shards plus every donated subtree.
	Units int64 `json:"units"`
	// ShardSteals counts whole untouched shards taken from another
	// worker's deque; SubtreeSteals counts donated subtrees taken the
	// same way.
	ShardSteals   int64 `json:"shardSteals"`
	SubtreeSteals int64 `json:"subtreeSteals"`
	// Donations counts DFS subtrees busy searchers handed to the pool.
	Donations int64 `json:"donations"`
	// StealsByWorker is the number of units each worker took from a
	// peer's deque.
	StealsByWorker []int64 `json:"stealsByWorker"`
	// WallSeconds is the elapsed time of the parallel phase.
	WallSeconds float64 `json:"wallSeconds"`
	// BusySeconds is the accumulated search time per worker;
	// IdleSeconds the accumulated time each spent parked waiting for
	// work.
	BusySeconds []float64 `json:"busySeconds"`
	IdleSeconds []float64 `json:"idleSeconds"`
	// Utilization is sum(BusySeconds) / (Workers × WallSeconds);
	// Balance is max(BusySeconds) / mean(BusySeconds) — 1.0 is a
	// perfectly even pool, a pool stranded on one deep launch cone
	// shows up as Balance ≈ Workers.
	Utilization float64 `json:"utilization"`
	Balance     float64 `json:"balance"`
}

// ParallelStats returns the pool snapshot of the most recent parallel
// search (zero value when every run so far was serial).
func (e *Engine) ParallelStats() ParallelStats {
	_, ps := e.snapStats()
	return ps
}

// precomputeLoads fills the output-load cache for every gate so the
// map is read-only while the workers share it. warmKernels (kernels.go)
// and faninTable (core.go) play the same role for the delay-kernel and
// fanin tables and are called right after it at every parallel entry
// point. The kernel table is the only reader of loads during a search,
// so a structure-only engine (nil Lib, possibly nil Tech) computes none.
func (e *Engine) precomputeLoads() {
	if e.Lib == nil {
		return
	}
	for _, g := range e.Circuit.Gates {
		e.load(g)
	}
}

// warmShared pre-builds every structure the workers will share
// read-only: load cache, delay kernels, fanin table, topological
// order.
func (e *Engine) warmShared() error {
	if _, err := e.Circuit.TopoGates(); err != nil {
		return err
	}
	e.precomputeLoads()
	e.warmKernels()
	e.faninTable()
	return nil
}

// workerEngine builds a shallow engine clone for one worker: circuit,
// technology, characterized library and the pre-warmed (now read-only)
// load cache, delay-kernel table and fanin table are shared; the
// options are private with the global step cap disabled — the parallel
// budget is the scheduler's shared stepBudget — and the progress
// fan-in hook installed. The dedupe pre-size hint is divided across
// the pool. When Workers > 1, a configured Tracer receives events from
// all workers and must be safe for concurrent Emit (obs.JSONL is).
func (e *Engine) workerEngine(progress func(ProgressInfo), workers int) *Engine {
	we := *e
	// The lane scratch must be private per worker: a shared copy would
	// hand every worker the same grown backing arrays.
	we.ksc = kernelScratch{}
	we.Opts.MaxSteps = 0
	we.Opts.Progress = progress
	if workers > 0 {
		we.pathHint = e.pathHint / workers
	}
	return &we
}

// progressAgg fans per-worker progress callbacks into the user's single
// Options.Progress with aggregated step and path counts. Each worker
// runs one persistent searcher whose counters are cumulative across
// its units, so the aggregate is a plain sum of the latest report per
// worker. A nil *progressAgg is valid and inert (no Progress
// configured).
type progressAgg struct {
	mu            sync.Mutex
	fn            func(ProgressInfo)
	maxSteps      int64
	workers       int
	cur, curPaths []int64 // latest cumulative report per searcher slot
}

// newProgressAgg sizes the aggregator for `slots` concurrent
// searchers: equal to the worker count for single-corner runs; a
// multi-corner run keeps one persistent searcher per (worker, corner)
// and aggregates across all of them.
func newProgressAgg(e *Engine, workers, slots int) *progressAgg {
	if e.Opts.Progress == nil {
		return nil
	}
	return &progressAgg{
		fn:       e.Opts.Progress,
		maxSteps: e.Opts.MaxSteps,
		workers:  workers,
		cur:      make([]int64, slots),
		curPaths: make([]int64, slots),
	}
}

// hook returns searcher slot w's Progress callback (nil when no
// aggregation is needed). Callbacks are serialized under the
// aggregator's mutex.
func (a *progressAgg) hook(w int) func(ProgressInfo) {
	if a == nil {
		return nil
	}
	return func(pi ProgressInfo) {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.cur[w], a.curPaths[w] = pi.Steps, pi.Paths
		steps, paths := int64(0), int64(0)
		for i := range a.cur {
			steps += a.cur[i]
			paths += a.curPaths[i]
		}
		a.fn(ProgressInfo{Steps: steps, MaxSteps: a.maxSteps, Paths: paths,
			Input: pi.Input, Workers: a.workers})
	}
}

// finish emits the final Done callback with the merged totals.
func (a *progressAgg) finish(steps, paths int64) {
	if a == nil {
		return
	}
	a.fn(ProgressInfo{Steps: steps, MaxSteps: a.maxSteps, Paths: paths,
		Workers: a.workers, Done: true})
}

// runPool runs every parallel search. It forks each corner's K-worst
// pruners (k > 0), seeds shards root units per corner, runs the
// workers, merges every corner with mergeOutcomes, and publishes the
// summed stats, the pool snapshot, the final progress callback, the
// search span and the "done" event. A single-corner search passes
// its own engine as the one corner. It returns each corner's merged
// result and busy time, and the pool snapshot.
func (e *Engine) runPool(engines []*Engine, shards, workers, k int, spanName string, run func(*searcher, task)) ([]*Result, []time.Duration, ParallelStats, error) {
	corners := make([]*poolCorner, len(engines))
	for ci, ce := range engines {
		c := &poolCorner{eng: ce, budget: newStepBudget(e.Opts.MaxSteps)}
		if k > 0 {
			base, err := newPruner(ce, k)
			if err != nil {
				return nil, nil, ParallelStats{}, err
			}
			c.prunes = make([]*pruner, workers)
			for w := range c.prunes {
				c.prunes[w] = base.fork()
			}
		}
		corners[ci] = c
	}
	sd := newSched(e, corners, shards, workers, spanName)
	byWorker := make([][]workerOutcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			byWorker[w] = sd.runWorker(w, run)
		}(w)
	}
	wg.Wait()
	results := make([]*Result, len(corners))
	busy := make([]time.Duration, len(corners))
	stats := SearchStats{}
	outs := make([]workerOutcome, workers)
	for ci, c := range corners {
		for w := range outs {
			outs[w] = byWorker[w][ci]
		}
		res, cstats, err := e.mergeOutcomes(outs, k)
		if err != nil {
			return nil, nil, ParallelStats{}, err
		}
		results[ci] = res
		busy[ci] = time.Duration(c.busyNs.Load())
		stats.add(cstats)
	}
	e.publishStats(stats, int(stats.PathsRecorded))
	par := sd.parStats()
	e.publishParStats(par)
	sd.agg.finish(stats.SensitizationAttempts, stats.PathsRecorded)
	sd.searchSpan.Steps(stats.SensitizationAttempts).End()
	if t := e.Opts.Tracer; t != nil {
		t.Emit(obs.Event{Kind: "done", Steps: stats.SensitizationAttempts, N: stats.PathsRecorded})
	}
	return results, busy, par, nil
}

// poolSearch is the pooled mode of Enumerate, EnumerateCourse and
// KWorst: runPool's one-corner case, with the engine itself as the
// corner, after warming the tables the workers share.
func (e *Engine) poolSearch(shards, workers, k int, spanName string, run func(*searcher, task)) (*Result, error) {
	if err := e.warmShared(); err != nil {
		return nil, err
	}
	results, _, _, err := e.runPool([]*Engine{e}, shards, workers, k, spanName, run)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runInputUnit runs one launch-input unit: the whole cone of the
// shard's primary input, or a donated subtree of it.
func runInputUnit(s *searcher, t task) {
	in := s.c.Inputs[t.shard]
	if t.resume != nil {
		s.resumeUnit(in, t.resume)
	} else {
		s.searchFrom(in)
	}
}

// mergeOutcomes merges one corner's worker outcomes into one Result.
// Recorded variants are collapsed by path signature (a shard split by
// donation can justify the same variant on two workers; the copies are
// value-identical), then sorted by the canonical total order. k > 0
// keeps the k worst (KWorst); otherwise a MaxVariants cap keeps the
// best MaxVariants of whatever the pool recorded before the cap stopped
// it.
//
// stalint:deterministic the merge is where scheduling noise would leak
// into results; signature dedupe plus the canonical sort erase it
func (e *Engine) mergeOutcomes(outs []workerOutcome, k int) (*Result, SearchStats, error) {
	for i := range outs {
		if outs[i].err != nil {
			return nil, SearchStats{}, outs[i].err
		}
	}
	stats := SearchStats{}
	truncated := false
	for i := range outs {
		stats.add(outs[i].stats)
		truncated = truncated || outs[i].truncated
	}
	seen := make(map[sig128]struct{}, stats.PathsRecorded)
	var paths []*TruePath
	removed := int64(0)
	for i := range outs {
		for _, p := range outs[i].paths {
			if _, dup := seen[p.sig]; dup {
				removed++
				continue
			}
			seen[p.sig] = struct{}{}
			paths = append(paths, p)
		}
	}
	if k == 0 {
		// Fold cross-worker duplicates into the dedupe counter so the
		// merged stats match the serial searcher's for untruncated
		// runs: total justified emissions are scheduling-invariant, and
		// serial would have recorded each variant exactly once.
		stats.PathsRecorded -= removed
		stats.PathsDeduped += removed
	}
	sortPaths(paths)
	if k > 0 {
		if len(paths) > k {
			paths = paths[:k]
		}
	} else if mv := e.Opts.MaxVariants; mv > 0 && len(paths) > mv {
		paths = paths[:mv]
		truncated = true
		if TruncMaxVariants > stats.Truncation {
			stats.Truncation = TruncMaxVariants
		}
	}
	courses, multi := countCourses(paths)
	return &Result{
		Paths:               paths,
		Courses:             courses,
		MultiVectorCourses:  multi,
		Truncated:           truncated,
		Truncation:          stats.Truncation,
		Steps:               stats.SensitizationAttempts,
		JustificationAborts: stats.JustificationAborts,
		Stats:               stats,
	}, stats, nil
}

// parStats assembles the pool snapshot of a finished run.
func (d *sched) parStats() ParallelStats {
	return ParallelStats{
		Workers:        d.workers,
		Shards:         d.shards,
		Units:          d.units.Load(),
		ShardSteals:    d.shardSteals.Load(),
		SubtreeSteals:  d.subtreeSteals.Load(),
		Donations:      d.gauges.Donations(),
		StealsByWorker: d.gauges.Steals(),
		WallSeconds:    d.gauges.WallSeconds(),
		BusySeconds:    d.gauges.BusySeconds(),
		IdleSeconds:    d.gauges.IdleSeconds(),
		Utilization:    d.gauges.Utilization(),
		Balance:        d.gauges.Balance(),
	}
}
