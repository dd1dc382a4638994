package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tpsta/internal/obs"
)

// Work-stealing scheduler for the true-path search.
//
// Sharding by launch point alone strands the pool: on real topologies
// a few deep launch cones dominate, so one worker grinds through its
// cone while the rest sit idle. The scheduler balances the work and the
// budget:
//
//   - every worker owns a bounded deque of work units (tasks); the
//     shards are seeded round-robin, a worker drains its own deque
//     LIFO, and an idle worker steals from its peers — whole untouched
//     shards first (the biggest units), donated subtrees otherwise;
//   - when no queued unit is left anywhere, busy searchers donate
//     unexplored DFS subtrees: a snapshot of the decision prefix plus
//     the first unexpanded branch position, replayable because the
//     prefix deterministically reconstructs the constraint store (see
//     searcher.runUnit). A single hot launch cone — or a fixed course's
//     one root unit — thereby spreads across the whole pool;
//   - one atomic step budget per run (stepBudget) is drawn one
//     decision at a time, so a run truncates at exactly MaxSteps steps
//     at every worker count, with no per-shard split and no rounding
//     remainder lost.
//
// One pool driver (poolSearch) and one worker loop (runWorker) serve
// every search: a corner sweep runs one ordinary search per corner,
// and a serial search is a one-worker pool, which never steals and
// never donates (no peer is ever hungry). The merge stays
// deterministic for untruncated runs (see mergeOutcomes); DESIGN.md
// §11 documents the donation/replay protocol and what a truncated run
// still guarantees.

// task is one schedulable unit: a whole shard (resume == nil) or a
// donated DFS subtree of a shard.
type task struct {
	shard  int
	resume *resumePoint
}

// resumePoint pins a donated subtree: the decision prefix from the
// launch point to the frontier frame and the first branch the thief
// explores there. A root unit is the nil-prefix case (runUnit).
type resumePoint struct {
	prefix []arcRef
	// ref, vec locate the resume branch at the frontier: the fanout
	// index and the vector index.
	ref, vec int
	// donated stamps the moment the subtree was offered — set only when
	// Options.Metrics is on; runUnit observes the donation-to-resume
	// latency from it.
	donated time.Time
}

// stepBudget is the shared sensitization-step budget of a run.
// Workers draw one step per decision, so the pool as a whole performs
// exactly MaxSteps attempts before truncating, no matter how the work
// is distributed or how many workers share it. A nil *stepBudget is
// valid and unlimited.
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

// sched is the shared scheduler state of one run.
//
// stalint:shared — deques, pending, idle and done are guarded by mu
// (every access below locks); hungry, abort and the steal counters are
// atomics; eng, prunes, budget, agg and gauges are set before the
// workers start and read-only afterwards (the budget is atomic). The
// sharedstate analyzer flags any unguarded mutation added later.
type sched struct {
	eng     *Engine
	workers int
	// prunes holds each worker's K-worst pruner fork (nil outside
	// K-worst); budget is the run's shared step budget.
	prunes []*pruner
	budget *stepBudget
	// abort is raised by the searcher that hits the MaxVariants cap;
	// its peers stop at their next poll.
	abort  atomic.Bool
	agg    *progressAgg
	gauges *obs.WorkerGauges
	// searchSpan is the enclosing search span ("enumerate"/"course"/
	// "kworst"); worker spans parent to its ID, and poolSearch ends it —
	// before the final "done" event, so "done" stays the last record
	// of a trace. Set by newSched, read-only afterwards.
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

// newSched seeds one root task per shard, round-robin across the
// worker deques, under a fresh step budget of e's MaxSteps. prunes
// holds the workers' K-worst pruner forks (nil outside K-worst);
// spanName names the search span the run's worker spans parent to.
func newSched(e *Engine, prunes []*pruner, shards, workers int, spanName string) *sched {
	d := &sched{
		eng:     e,
		workers: workers,
		prunes:  prunes,
		budget:  newStepBudget(e.Opts.MaxSteps),
		agg:     newProgressAgg(e, workers),
		gauges:  obs.NewWorkerGauges(workers),
		deques:  make([][]task, workers),
		pending: shards,
		shards:  shards,
	}
	d.searchSpan = obs.StartSpan(e.Opts.Tracer, e.Opts.TraceParent, spanName)
	d.cond = sync.NewCond(&d.mu)
	for i := 0; i < shards; i++ {
		w := i % workers
		d.deques[w] = append(d.deques[w], task{shard: i})
	}
	d.units.Store(int64(shards))
	if workers > shards {
		n := int32(workers - shards)
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

// workerOutcome is one worker's contribution to the merge: every path
// it (or its forked pruner) kept across all the units it ran, plus its
// counter snapshot.
type workerOutcome struct {
	paths     []*TruePath
	stats     SearchStats
	truncated bool
}

// searcher builds worker w's persistent searcher, wired to the run's
// budget, abort flag and the worker's pruner fork.
func (d *sched) searcher(w int) *searcher {
	s := newSearcher(d.eng.workerEngine(d.agg.hook(w), d.workers))
	s.sched, s.worker = d, w
	s.budget, s.abort = d.budget, &d.abort
	if d.prunes != nil {
		s.prune = d.prunes[w]
	}
	return s
}

// runWorker is the body of one pool goroutine: take units until the
// scheduler closes, running each through this worker's persistent
// searcher. The searcher is created at the worker's first unit and
// reused across units, so the constraint store, scratch buffers and
// seen set are allocated once per worker.
func (d *sched) runWorker(w int, run func(*searcher, task)) workerOutcome {
	tr := d.eng.Opts.Tracer
	wsp := obs.StartSpan(tr, d.searchSpan.ID(), "worker").Worker(w)
	defer wsp.End()
	var s *searcher
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
		if s == nil {
			s = d.searcher(w)
		}
		// A stopped run (its budget exhausted, or a peer hit
		// MaxVariants) drains its remaining units unrun.
		if s.stopped || d.abort.Load() || d.budget.exhausted() {
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
	if s == nil {
		return workerOutcome{}
	}
	out := workerOutcome{stats: s.statsSnapshot(), truncated: s.truncated, paths: s.paths}
	if d.prunes != nil {
		out.paths = d.prunes[w].all()
	}
	return out
}
