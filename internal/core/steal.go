package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tpsta/internal/obs"
)

// Work-stealing scheduler for the parallel true-path search.
//
// PR 2's static mode sharded by launch point and split the MaxSteps
// budget evenly per shard. On real topologies a few deep launch cones
// dominate, so one worker ground through its cone while the rest sat
// idle, and the even quota split truncated shards that still had budget
// globally. The scheduler replaces both mechanisms:
//
//   - every worker owns a bounded deque of work units (tasks); the
//     shards are seeded round-robin, a worker drains its own deque
//     LIFO, and an idle worker steals from its peers — whole untouched
//     shards first (the biggest units), donated subtrees otherwise;
//   - when no queued unit is left anywhere, busy searchers donate
//     unexplored DFS subtrees: a snapshot of the decision prefix plus
//     the first unexpanded branch position, replayable because the
//     prefix deterministically reconstructs the constraint store (see
//     searcher.resumeUnit). A single hot launch cone thereby spreads
//     across the whole pool;
//   - the per-shard inputQuota is replaced by one atomic step budget
//     per corner (stepBudget) drawn one decision at a time, so a
//     parallel run truncates at exactly the same total step count as
//     the serial search, with no rounding remainder lost.
//
// One pool function (runPool) and one worker loop (runWorker) serve
// every parallel search: a single-corner search is a one-corner sweep. The
// merge stays deterministic for untruncated runs (see mergeOutcomes);
// DESIGN.md §11 documents the donation/replay protocol and what a
// truncated run still guarantees.

// task is one schedulable unit: a whole shard (resume == nil) or a
// donated DFS subtree of a shard. corner indexes the operating point
// the unit belongs to (sched.corners) — always 0 outside multi-corner
// sweeps.
type task struct {
	shard  int
	corner int
	resume *resumePoint
}

// resumePoint pins a donated subtree: the decision prefix from the
// launch point to the frontier frame and the first branch the thief
// explores there. hop distinguishes the two search modes.
type resumePoint struct {
	prefix []Arc
	// ref, vec locate the resume branch at the frontier: the fanout
	// index and vector index for the free search, the vector index
	// alone (hop names the frame) for a fixed course.
	ref, vec int
	// hop is the frontier hop index in course mode, -1 in the free
	// search.
	hop  int
	hops []courseHop // course mode: the resolved course, shared read-only
	// donated stamps the moment the subtree was offered — set only when
	// Options.Metrics is on; resumeUnit observes the donation-to-resume
	// latency from it.
	donated time.Time
}

// stepBudget is the shared sensitization-step budget of one corner of
// a parallel run. Workers draw one step per decision, so the pool as a
// whole performs exactly MaxSteps attempts per corner before
// truncating — the same ceiling the serial search observes — no matter
// how the work is distributed. A nil *stepBudget is valid and
// unlimited.
type stepBudget struct {
	rem atomic.Int64
}

func newStepBudget(maxSteps int64) *stepBudget {
	if maxSteps <= 0 {
		return nil
	}
	b := &stepBudget{}
	b.rem.Store(maxSteps)
	return b
}

// take draws one step; false means the budget is exhausted.
func (b *stepBudget) take() bool {
	if b == nil {
		return true
	}
	return b.rem.Add(-1) >= 0
}

// exhausted reports whether the budget ran out.
func (b *stepBudget) exhausted() bool {
	return b != nil && b.rem.Load() <= 0
}

// poolCorner is one operating point's state in a parallel run; a
// single-corner search is the one-corner case. Each corner has its
// pinned engine, its own step budget (every corner truncates at exactly
// the serial ceiling, like an independent run), its own abort flag (one
// corner hitting MaxVariants never stops the others), the per-worker
// K-worst pruner forks (nil outside K-worst) and the busy time its
// units took.
type poolCorner struct {
	eng    *Engine
	prunes []*pruner
	budget *stepBudget
	abort  atomic.Bool
	busyNs atomic.Int64
}

// maxDeque bounds each worker's deque: a donor whose queue is full
// keeps the subtree instead (the frame stays undonated and can be
// offered again at a later poll).
const maxDeque = 64

// defaultStealPoll is the donation-poll period in sensitization
// attempts (Options.StealPollSteps overrides it).
const defaultStealPoll = 128

// sched is the shared scheduler state of one parallel run.
//
// stalint:shared — deques, pending, idle and done are guarded by mu
// (every access below locks); hungry and the steal counters are
// atomics; eng, corners, agg and gauges are set before the workers
// start and read-only afterwards (a corner's budget, abort flag and
// busy time are atomics). The sharedstate analyzer flags any unguarded
// mutation added later.
type sched struct {
	eng     *Engine
	workers int
	corners []*poolCorner
	agg     *progressAgg
	gauges  *obs.WorkerGauges
	// searchSpan is the enclosing search span ("enumerate"/"course"/
	// "kworst"/"multicorner"); worker spans parent to its ID, and
	// runPool ends it — before the final "done" event, so "done" stays
	// the last record of a trace. Set by newSched, read-only afterwards.
	searchSpan obs.Span

	mu      sync.Mutex
	cond    *sync.Cond
	deques  [][]task // per-worker; owner pops the back, thieves the front
	pending int      // tasks queued + running; 0 means the run is over
	done    bool

	// hungry counts workers currently starved for work; busy searchers
	// poll it (Options.StealPollSteps) and donate when it is non-zero.
	hungry atomic.Int32
	// seedCredits pre-counts the workers whose deques start empty
	// (pool larger than the root-unit count): on a small machine their
	// goroutines may not be scheduled before the first cones finish,
	// so donors treat them as hungry from the start — each worker
	// retires one credit after its first next() call, by which point
	// its own parking keeps the count honest.
	seedCredits atomic.Int32

	shards        int
	units         atomic.Int64 // tasks ever scheduled (root units + donations)
	shardSteals   atomic.Int64 // root tasks taken from another worker
	subtreeSteals atomic.Int64 // donated tasks taken from another worker
}

// newSched seeds one root task per (corner × shard), corner-major and
// round-robin across the worker deques, so idle workers drain whichever
// corner still has work. spanName names the search span the run's
// worker spans parent to. The progress aggregator keeps one slot per
// (worker, corner) searcher.
func newSched(e *Engine, corners []*poolCorner, shards, workers int, spanName string) *sched {
	roots := len(corners) * shards
	d := &sched{
		eng:     e,
		workers: workers,
		corners: corners,
		agg:     newProgressAgg(e, workers, workers*len(corners)),
		gauges:  obs.NewWorkerGauges(workers),
		deques:  make([][]task, workers),
		pending: roots,
		shards:  shards,
	}
	d.searchSpan = obs.StartSpan(e.Opts.Tracer, e.Opts.TraceParent, spanName)
	d.cond = sync.NewCond(&d.mu)
	for i := 0; i < roots; i++ {
		w := i % workers
		d.deques[w] = append(d.deques[w], task{corner: i / shards, shard: i % shards})
	}
	d.units.Store(int64(roots))
	if workers > roots {
		n := int32(workers - roots)
		d.seedCredits.Store(n)
		d.hungry.Store(n)
	}
	return d
}

// offer appends a donated subtree to worker w's deque. It fails when
// the deque is full — the donor then simply keeps the subtree.
func (d *sched) offer(w int, t task) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done || len(d.deques[w]) >= maxDeque {
		return false
	}
	d.deques[w] = append(d.deques[w], t)
	d.pending++
	d.units.Add(1)
	d.gauges.Donation()
	// The "donate" event fires at exactly the gauge site, so an offline
	// count over the trace reproduces ParallelStats.Donations.
	if tr := d.eng.Opts.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: "donate", Worker: w})
	}
	d.cond.Broadcast()
	return true
}

// next blocks until worker w has a unit to run or the run is over.
// Preference order: own deque back (LIFO keeps donated subtrees hot in
// cache), then a steal: a whole untouched shard from
// any peer first, a donated subtree otherwise. A worker that finds
// nothing parks as hungry until a donation or completion wakes it.
func (d *sched) next(w int) (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.done {
			return task{}, false
		}
		if n := len(d.deques[w]); n > 0 {
			t := d.deques[w][n-1]
			d.deques[w] = d.deques[w][:n-1]
			return t, true
		}
		if t, ok := d.steal(w); ok {
			return t, true
		}
		if d.pending == 0 {
			d.done = true
			d.cond.Broadcast()
			return task{}, false
		}
		d.hungry.Add(1)
		stop := d.gauges.IdleStart(w)
		d.cond.Wait()
		stop()
		d.hungry.Add(-1)
	}
}

// steal scans the peers (round-robin from w+1) for a root task, then
// for a donated one; both are taken from the victim's front — the
// oldest, largest units. Caller holds d.mu.
func (d *sched) steal(w int) (task, bool) {
	for _, wantRoot := range [2]bool{true, false} {
		for i := 1; i < d.workers; i++ {
			v := (w + i) % d.workers
			for j, t := range d.deques[v] {
				if (t.resume == nil) != wantRoot {
					continue
				}
				// stalint:ignore sharedstate caller (next) holds d.mu
				d.deques[v] = append(d.deques[v][:j], d.deques[v][j+1:]...)
				if wantRoot {
					d.shardSteals.Add(1)
				} else {
					d.subtreeSteals.Add(1)
				}
				d.gauges.Steal(w)
				// The "steal" event fires at exactly the counter site:
				// per-worker counts over the trace reproduce
				// ParallelStats.StealsByWorker, and Detail splits them
				// into the shard/subtree totals.
				if tr := d.eng.Opts.Tracer; tr != nil {
					detail := "shard"
					if !wantRoot {
						detail = "subtree"
					}
					tr.Emit(obs.Event{Kind: "steal", Worker: w, Detail: detail})
				}
				return t, true
			}
		}
	}
	return task{}, false
}

// finish retires one completed unit; the last one ends the run.
func (d *sched) finish() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pending--
	if d.pending == 0 {
		d.done = true
	}
	d.cond.Broadcast()
}

// workerOutcome is one (worker, corner) searcher's contribution to the
// corner's merge: every path it (or its forked pruner) kept across all
// the units it ran, plus its counter snapshot.
type workerOutcome struct {
	paths     []*TruePath
	stats     SearchStats
	truncated bool
	err       error
}

// runWorker is the body of one pool goroutine: take units until the
// scheduler closes, running each through this worker's persistent
// searcher for the unit's corner. The searcher is created at the
// corner's first unit and reused across units, so the constraint store,
// scratch buffers, seen set and pathNodes backing arrays are allocated
// once per (worker, corner); it is wired to that corner's engine,
// budget, abort flag and pruner fork, so per-corner state never mixes.
// Returns one outcome per corner.
func (d *sched) runWorker(w int, run func(*searcher, task)) []workerOutcome {
	nc := len(d.corners)
	tr := d.eng.Opts.Tracer
	wsp := obs.StartSpan(tr, d.searchSpan.ID(), "worker").Worker(w)
	defer wsp.End()
	searchers := make([]*searcher, nc)
	outs := make([]workerOutcome, nc)
	credit := d.seedCredits.Add(-1) >= 0
	for {
		t, ok := d.next(w)
		if credit {
			d.hungry.Add(-1)
			credit = false
		}
		if !ok {
			break
		}
		c := d.corners[t.corner]
		s := searchers[t.corner]
		if s == nil && outs[t.corner].err == nil {
			we := c.eng.workerEngine(d.agg.hook(w*nc+t.corner), d.workers)
			var err error
			if s, err = newSearcher(we); err != nil {
				// Cannot happen after the pre-fan-out TopoGates, but the
				// pool must still terminate: record the error and drain.
				outs[t.corner].err = err
			} else {
				s.sched = d
				s.worker = w
				s.curCorner = t.corner
				s.budget = c.budget
				s.abort = &c.abort
				if c.prunes != nil {
					s.prune = c.prunes[w]
				}
				searchers[t.corner] = s
			}
		}
		// A stopped corner (its budget exhausted, or a peer hit
		// MaxVariants on it) drains its remaining units unrun; the other
		// corners keep going.
		if s == nil || s.stopped || c.abort.Load() || c.budget.exhausted() {
			if s != nil && c.budget.exhausted() {
				s.truncate(TruncMaxSteps)
			}
			d.finish()
			continue
		}
		stop := d.gauges.Busy(w)
		s.curShard = t.shard
		name := "shard"
		if t.resume != nil {
			name = "subtree"
		}
		usp := obs.StartSpan(tr, wsp.ID(), name).Worker(w)
		steps0 := s.steps
		run(s, t)
		usp.Steps(s.steps - steps0).End()
		// One clock reading feeds both the worker's and the corner's
		// busy time, so the two sums reconcile exactly.
		c.busyNs.Add(int64(stop()))
		d.finish()
	}
	for ci, s := range searchers {
		if s == nil {
			continue
		}
		outs[ci] = workerOutcome{stats: s.statsSnapshot(), truncated: s.truncated}
		if p := d.corners[ci].prunes; p != nil {
			outs[ci].paths = p[w].all()
		} else {
			outs[ci].paths = s.paths
		}
	}
	return outs
}
