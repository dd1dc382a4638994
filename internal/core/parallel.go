package core

import (
	"runtime"
	"sync"

	"tpsta/internal/cell"
	"tpsta/internal/netlist"
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
	// Learn is the pool-summed conflict-learning snapshot (nil unless
	// Options.Learning was on). The hit and exchange counts depend on
	// the steal schedule.
	Learn *LearnStats `json:"learn,omitempty"`
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

// runPool spawns the workers and collects their outcomes.
func (d *sched) runPool(prunes []*pruner, run func(*searcher, task)) []workerOutcome {
	outs := make([]workerOutcome, d.workers)
	var wg sync.WaitGroup
	for w := 0; w < d.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prune *pruner
			if prunes != nil {
				prune = prunes[w]
			}
			outs[w] = d.runWorker(w, prune, run)
		}(w)
	}
	wg.Wait()
	return outs
}

// enumerateParallel is Enumerate's pooled mode: one root shard per
// primary input, work-stealing pool, signature-deduped deterministic
// merge.
func (e *Engine) enumerateParallel(workers int) (*Result, error) {
	inputs := e.Circuit.Inputs
	if err := e.warmShared(); err != nil {
		return nil, err
	}
	sd := newSched(e, len(inputs), workers, "enumerate")
	outs := sd.runPool(nil, func(s *searcher, t task) {
		if t.resume != nil {
			s.resumeUnit(inputs[t.shard], t.resume)
		} else {
			s.searchFrom(inputs[t.shard])
		}
	})
	return e.finishParallel(sd, outs, 0)
}

// enumerateCourseParallel shards a fixed-course exploration over the
// first hop's sensitization vectors (donations start from hop 1 — the
// first hop is the sharding axis itself).
func (e *Engine) enumerateCourseParallel(workers int, start *netlist.Node, hops []courseHop) (*Result, error) {
	if err := e.warmShared(); err != nil {
		return nil, err
	}
	vecs := hops[0].gate.Cell.Vectors(hops[0].pin)
	sd := newSched(e, len(vecs), workers, "course")
	outs := sd.runPool(nil, func(s *searcher, t task) {
		if t.resume != nil {
			s.resumeUnit(start, t.resume)
		} else {
			s.walkCourse(start, hops, []cell.Vector{vecs[t.shard]})
		}
	})
	return e.finishParallel(sd, outs, 0)
}

// kworstParallel is KWorst's pooled mode. Workers own forked pruners
// (shared read-only bound tables, private k-best heaps) attached to
// their persistent searcher. The union of the worker heaps always
// contains the canonical global k-best — pruning only ever discards
// paths whose optimistic bound falls strictly below a delay that k
// already-kept paths reach, an argument independent of which worker
// kept them — so deduping and sorting the union and keeping the first
// k reproduces the serial path set for any pool size and any steal
// schedule.
func (e *Engine) kworstParallel(workers, k int) (*Result, error) {
	inputs := e.Circuit.Inputs
	if err := e.warmShared(); err != nil {
		return nil, err
	}
	base, err := newPruner(e, k)
	if err != nil {
		return nil, err
	}
	sd := newSched(e, len(inputs), workers, "kworst")
	prunes := make([]*pruner, sd.workers)
	for w := range prunes {
		prunes[w] = base.fork()
	}
	outs := sd.runPool(prunes, func(s *searcher, t task) {
		if t.resume != nil {
			s.resumeUnit(inputs[t.shard], t.resume)
		} else {
			s.searchFrom(inputs[t.shard])
		}
	})
	return e.finishParallel(sd, outs, k)
}

// finishParallel merges the worker outcomes into one Result and
// publishes the engine-level snapshots. Recorded variants are
// collapsed by path signature (a shard split by donation can justify
// the same variant on two workers; the copies are value-identical),
// then sorted by the canonical total order. k > 0 keeps the k worst
// (KWorst); otherwise a MaxVariants cap keeps the best MaxVariants of
// whatever the pool recorded before the cap stopped it.
//
// stalint:deterministic the merge is where scheduling noise would leak
// into results; signature dedupe plus the canonical sort erase it
func (e *Engine) mergeOutcomes(outs []workerOutcome, k int) (*Result, SearchStats, LearnStats, error) {
	for i := range outs {
		if outs[i].err != nil {
			return nil, SearchStats{}, LearnStats{}, outs[i].err
		}
	}
	stats := SearchStats{}
	learn := LearnStats{}
	truncated := false
	for i := range outs {
		o := &outs[i]
		learn.add(o.learn)
		stats.SensitizationAttempts += o.stats.SensitizationAttempts
		stats.Conflicts += o.stats.Conflicts
		stats.Backtracks += o.stats.Backtracks
		stats.JustificationAborts += o.stats.JustificationAborts
		stats.InputQuotaExhaustions += o.stats.InputQuotaExhaustions
		stats.PathsRecorded += o.stats.PathsRecorded
		stats.PathsDeduped += o.stats.PathsDeduped
		if o.stats.Truncation > stats.Truncation {
			stats.Truncation = o.stats.Truncation
		}
		truncated = truncated || o.truncated
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
	}, stats, learn, nil
}

// finishParallel merges and publishes one single-corner parallel run.
func (e *Engine) finishParallel(sd *sched, outs []workerOutcome, k int) (*Result, error) {
	res, stats, learn, err := e.mergeOutcomes(outs, k)
	if err != nil {
		return nil, err
	}
	e.publishStats(stats, int(stats.PathsRecorded))
	e.publishLearnStats(learn)
	var learnPtr *LearnStats
	if e.Opts.Learning {
		lcopy := learn
		learnPtr = &lcopy
	}
	e.publishParStats(sd.parStats(learnPtr))
	sd.agg.finish(stats.SensitizationAttempts, stats.PathsRecorded)
	sd.searchSpan.Steps(stats.SensitizationAttempts).End()
	if t := e.Opts.Tracer; t != nil {
		t.Emit(obs.Event{Kind: "done", Steps: stats.SensitizationAttempts, N: stats.PathsRecorded})
	}
	return res, nil
}

// parStats assembles the pool snapshot of a finished run.
func (d *sched) parStats(learnPtr *LearnStats) ParallelStats {
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
		Learn:          learnPtr,
	}
}
