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
//   - the per-shard inputQuota is replaced by a single atomic global
//     step budget (stepBudget) drawn one decision at a time, so a
//     parallel run truncates at exactly the same total step count as
//     the serial search, with no rounding remainder lost.
//
// The merge stays deterministic for untruncated runs (see
// finishParallel); DESIGN.md §11 documents the donation/replay
// protocol and what a truncated run still guarantees.

// task is one schedulable unit: a whole shard (resume == nil) or a
// donated DFS subtree of a shard. corner indexes the operating point
// the unit belongs to — always 0 outside multi-corner runs, where one
// steal pool schedules (corner × shard) units (multicorner.go).
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

// stepBudget is the shared global sensitization-step budget of a
// parallel run. Workers draw one step per decision, so the pool as a
// whole performs exactly MaxSteps attempts before truncating — the
// same ceiling the serial search observes — no matter how the work is
// distributed. A nil *stepBudget is valid and unlimited.
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
// (every access below locks); hungry, aborting and the steal counters
// are atomics; eng, agg, gauges and budget are set before the
// workers start and read-only afterwards. The sharedstate analyzer
// flags any unguarded mutation added later.
type sched struct {
	eng     *Engine
	workers int
	budget  *stepBudget
	agg     *progressAgg
	gauges  *obs.WorkerGauges
	// searchSpan is the enclosing search span ("enumerate"/"course"/
	// "kworst"); worker spans parent to its ID, and finishParallel ends
	// it — before the final "done" event, so "done" stays the last
	// record of a trace. Set by newSched, read-only afterwards.
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
	// (pool larger than the shard count): on a small machine their
	// goroutines may not be scheduled before the first cones finish,
	// so donors treat them as hungry from the start — each worker
	// retires one credit after its first next() call, by which point
	// its own parking keeps the count honest.
	seedCredits atomic.Int32
	// aborting is set when a worker hits the MaxVariants cap: the
	// other workers stop at their next poll instead of finishing their
	// subtrees.
	aborting atomic.Bool

	shards        int
	units         atomic.Int64 // tasks ever scheduled (shards + donations)
	shardSteals   atomic.Int64 // root tasks taken from another worker
	subtreeSteals atomic.Int64 // donated tasks taken from another worker
}

// newSched seeds one root task per shard, round-robin across the
// worker deques. spanName names the search span the run's worker spans
// parent to.
func newSched(e *Engine, shards, workers int, spanName string) *sched {
	units := make([]task, shards)
	for i := range units {
		units[i] = task{shard: i}
	}
	d := newSchedUnits(e, units, shards, workers, workers, spanName)
	d.budget = newStepBudget(e.Opts.MaxSteps)
	return d
}

// newSchedUnits seeds an explicit root-unit list round-robin across
// the worker deques — multi-corner runs pass corner-major
// (corner × shard) units through one steal pool, so idle workers drain
// whichever corner still has work. progressSlots sizes the progress
// aggregator (one slot per concurrent searcher: workers for a
// single-corner run, workers × corners for a sweep). The caller owns
// the step budget: multi-corner runs keep one per corner, so the
// sched-level field stays nil there.
func newSchedUnits(e *Engine, units []task, shards, workers, progressSlots int, spanName string) *sched {
	d := &sched{
		eng:     e,
		workers: workers,
		agg:     newProgressAgg(e, workers, progressSlots),
		gauges:  obs.NewWorkerGauges(workers),
		deques:  make([][]task, workers),
		pending: len(units),
		shards:  shards,
	}
	d.searchSpan = obs.StartSpan(e.Opts.Tracer, e.Opts.TraceParent, spanName)
	d.cond = sync.NewCond(&d.mu)
	for i, u := range units {
		w := i % workers
		d.deques[w] = append(d.deques[w], u)
	}
	d.units.Store(int64(len(units)))
	if workers > len(units) {
		n := int32(workers - len(units))
		d.seedCredits.Store(n)
		d.hungry.Store(n)
	}
	return d
}

func (d *sched) aborted() bool { return d.aborting.Load() }

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

// workerOutcome is one worker's contribution to the merge: every path
// its searcher (or forked pruner) kept across all the units it ran,
// plus its counter snapshot.
type workerOutcome struct {
	paths     []*TruePath
	stats     SearchStats
	truncated bool
	err       error
}

// runWorker is the body of one pool goroutine: take units until the
// scheduler closes, running each through one persistent searcher —
// reused across units so the constraint store, scratch buffers, seen
// set and pathNodes backing arrays are allocated once per worker, not
// once per shard. prune, when non-nil, is the worker's forked K-worst
// pruner (attached for the searcher's whole life).
func (d *sched) runWorker(w int, prune *pruner, run func(*searcher, task)) workerOutcome {
	tr := d.eng.Opts.Tracer
	wsp := obs.StartSpan(tr, d.searchSpan.ID(), "worker").Worker(w)
	defer wsp.End()
	we := d.eng.workerEngine(d.agg.hook(w), d.workers)
	s, err := newSearcher(we)
	if err != nil {
		// Cannot happen after the pre-fan-out TopoGates, but the
		// scheduler must still drain this worker's units so the pool
		// terminates.
		for {
			if _, ok := d.next(w); !ok {
				return workerOutcome{err: err}
			}
			d.finish()
		}
	}
	s.sched = d
	s.worker = w
	s.budget = d.budget
	s.abort = &d.aborting
	s.prune = prune
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
		// A stopped searcher (global budget exhausted, or another
		// worker hit MaxVariants) drains its remaining units unrun.
		if s.stopped || d.aborted() || d.budget.exhausted() {
			if d.budget.exhausted() {
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
		stop()
		d.finish()
	}
	out := workerOutcome{stats: s.statsSnapshot(), truncated: s.truncated}
	if prune != nil {
		out.paths = prune.all()
	} else {
		out.paths = s.paths
	}
	return out
}
