package core

import (
	"sync/atomic"
	"time"

	"tpsta/internal/cell"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
	"tpsta/internal/obs"
	"tpsta/internal/sim"
)

// searcher holds the mutable state of one enumeration run: the
// constraint store (one dual value per net), the undo trail, the current
// partial path and the recorded results.
type searcher struct {
	eng *Engine
	c   *netlist.Circuit

	values         []logic.Dual
	trail          []trailEntry
	aliveR, aliveF bool
	pending        []obligation // side values awaiting end-of-path justification

	// gateFanins[g.ID][i] is the node ID on pin Inputs[i] of gate g;
	// scratchR/scratchF are evaluation buffers (max pin count is 4).
	gateFanins         [][]int
	scratchR, scratchF []logic.Value

	start     *netlist.Node
	pathNodes []string
	arcs      []Arc
	// curRising is the edge polarity of the current path head in the
	// rise-launch scenario (the fall scenario is always its complement).
	curRising bool
	// pathSig is the incremental 128-bit signature of the current
	// partial path: seeded with the launch node ID, one arcToken
	// absorbed (and restored on backtrack) per traversed arc. emit()
	// extends it with the cube and edge bits to form the variant
	// identity — no string is built on the record path.
	pathSig sig128

	paths      []*TruePath
	seen       map[sig128]struct{}
	steps      int64
	justAborts int64
	stopped    bool
	truncated  bool
	truncWhy   TruncReason

	// Instrumentation counters (plain int64: the search is
	// single-threaded; snapshots are taken in result()).
	conflicts     int64
	backtracks    int64
	quotaExhausts int64
	recorded      int64
	deduped       int64
	progressEvery int64

	// inputQuota bounds the steps of the current launching input's DFS
	// (0 = unlimited); inputStart and inputExhausted implement it.
	inputQuota     int64
	inputStart     int64
	inputExhausted bool

	// dscratch is the reusable arc-delay buffer for recorded-path
	// scoring: each searcher owns one, so worker shards never share a
	// backing array.
	dscratch []float64

	// implQueue is the reusable forward-implication worklist of assign.
	// assign is not re-entrant (the loop body only evaluates gates), so
	// one buffer per searcher keeps the steady-state step allocation-free
	// even when the fanout frontier outgrows what escape analysis would
	// keep on the stack.
	implQueue []implWork

	// kworst pruning (nil when not in K-worst mode).
	prune *pruner

	// Work-stealing state (nil sched = serial run). The searcher draws
	// every decision from the shared global budget, polls for hungry
	// peers every stealPoll steps, and tracks one donFrame per DFS
	// level so maybeDonate can carve off the shallowest unexplored
	// branch range. replaying suppresses step/conflict accounting while
	// a stolen prefix is being re-descended (the donor already paid for
	// it).
	sched     *sched
	worker    int
	curShard  int
	curCorner int
	budget    *stepBudget
	// abort is the stop flag this searcher polls and raises on a
	// MaxVariants cap. Single-corner parallel runs point every worker
	// at the sched's pool-wide aborting flag; multi-corner runs point
	// each (worker, corner) searcher at that corner's private flag, so
	// one capped corner never stops the others. nil on serial runs.
	abort      *atomic.Bool
	stealPoll  int64
	replaying  bool
	frames     []donFrame
	courseHops []courseHop
	donations  int64

	// Conflict-driven nogood learning (Options.Learning; all nil/false
	// otherwise — see nogood.go). ng is this searcher's private store;
	// ngBoard the parallel run's lock-free exchange board; rec aliases
	// ng only while a dead decision is re-run under the read recorder;
	// contDead is tryArc's signal back to withVector that the decision
	// just applied has no viable continuation (learned as kindDeadArc).
	ng       *nogoodStore
	ngBoard  *nogoodBoard
	rec      *nogoodStore
	contDead bool

	// Opt-in observability (obs v2). metrics mirrors
	// Options.Metrics — nil keeps withVector/emit branch-only;
	// sampleEvery mirrors Options.TraceSampleEvery and is forced to 0
	// when no tracer is configured, so the sampling check costs one
	// compare on untraced runs. sampleTick counts every withVector
	// entry (including replays, which s.steps skips) so replayed
	// decisions are sampled too.
	metrics     *Metrics
	sampleEvery int64
	sampleTick  int64
}

// donFrame is the donation bookkeeping for one level of the DFS: the
// branch position currently being explored (fanout-ref × vector for
// the free search, vector alone for a fixed-course hop) and the arc
// depth of the frame, whose prefix replays the constraint state.
// Donating marks the frame; the owner stops before starting any branch
// after the donated position.
type donFrame struct {
	node     *netlist.Node // free search: the path head; nil in course mode
	hop      int           // course mode: hop index; -1 in the free search
	arcDepth int           // len(s.arcs) when the frame was pushed
	ref, vec int           // branch currently in flight
	donated  bool          // branches after (ref, vec) were handed away
}

type trailEntry struct {
	nid int
	old logic.Dual
}

// frame snapshots the searcher for backtracking.
type frame struct {
	trailLen       int
	pendingLen     int
	aliveR, aliveF bool
}

func newSearcher(e *Engine) (*searcher, error) {
	if _, err := e.Circuit.TopoGates(); err != nil {
		return nil, err
	}
	// Pre-size the dedupe set from the previous run's recorded-path
	// count (the engine-level hint) so steady-state re-runs never grow
	// the map incrementally.
	hint := e.pathHint
	if hint < 16 {
		hint = 16
	}
	s := &searcher{
		eng:      e,
		c:        e.Circuit,
		values:   make([]logic.Dual, len(e.Circuit.Nodes)),
		seen:     make(map[sig128]struct{}, hint),
		scratchR: make([]logic.Value, 8),
		scratchF: make([]logic.Value, 8),
	}
	for i := range s.values {
		s.values[i] = logic.DualX
	}
	s.progressEvery = e.Opts.ProgressEvery
	if s.progressEvery <= 0 {
		s.progressEvery = 65536
	}
	s.stealPoll = e.Opts.StealPollSteps
	if s.stealPoll <= 0 {
		s.stealPoll = defaultStealPoll
	}
	s.metrics = e.Opts.Metrics
	if e.Opts.Tracer != nil {
		s.sampleEvery = e.Opts.TraceSampleEvery
	}
	s.gateFanins = e.faninTable()
	if e.Opts.Learning {
		s.ng = newNogoodStore(len(e.Circuit.Nodes))
		s.ng.verify = e.learnVerify
	}
	return s, nil
}

// truncate marks the search truncated, keeping the strongest reason
// seen (global caps outrank a per-input quota).
func (s *searcher) truncate(why TruncReason) {
	s.truncated = true
	if why > s.truncWhy {
		s.truncWhy = why
	}
}

// traceTruncate emits the truncation event — kept out of the decision
// hot path so the reason string is only rendered when a tracer exists.
//
// stalint:coldpath terminal truncation exit, runs at most once per
// search and builds the event only under a configured tracer
func (s *searcher) traceTruncate(why TruncReason, input string) {
	if s.eng.Opts.Tracer == nil {
		return
	}
	s.trace(obs.Event{Kind: "truncate", Detail: why.String(), Input: input, Steps: s.steps})
}

// trace emits ev when a tracer is configured.
//
// stalint:coldpath tracer-gated instrumentation — no tracer, no call
// cost; with one, the event cost is the opt-in price of tracing
func (s *searcher) trace(ev obs.Event) {
	if t := s.eng.Opts.Tracer; t != nil {
		t.Emit(ev)
	}
}

// traceStep emits one sampled "step" event (Options.TraceSampleEvery):
// the DFS depth, the current frame's 128-bit path signature, the worker
// and — while re-descending a stolen prefix — the replay provenance.
// The event (and its hex string) is built only when a tracer exists.
//
// stalint:coldpath sampled instrumentation — runs once per
// TraceSampleEvery decisions and only with a tracer configured
func (s *searcher) traceStep() {
	t := s.eng.Opts.Tracer
	if t == nil {
		return
	}
	ev := obs.Event{Kind: "step", Steps: s.steps, Depth: len(s.arcs),
		Sig: s.pathSig.hex(), Worker: s.worker}
	if s.start != nil {
		ev.Input = s.start.Name
	}
	if s.replaying {
		ev.Detail = "replay"
	}
	t.Emit(ev)
}

// progress fires the periodic progress callback.
//
// stalint:coldpath opt-in callback, throttled to once per progressEvery
// decisions; the callback's cost belongs to its provider
func (s *searcher) progress(done bool) {
	p := s.eng.Opts.Progress
	if p == nil {
		return
	}
	name := ""
	if s.start != nil {
		name = s.start.Name
	}
	p(ProgressInfo{
		Steps:    s.steps,
		MaxSteps: s.eng.Opts.MaxSteps,
		Paths:    s.recorded,
		Input:    name,
		Done:     done,
	})
}

func (s *searcher) save() frame {
	return frame{len(s.trail), len(s.pending), s.aliveR, s.aliveF}
}

func (s *searcher) restore(f frame) {
	for i := len(s.trail) - 1; i >= f.trailLen; i-- {
		s.values[s.trail[i].nid] = s.trail[i].old
	}
	s.trail = s.trail[:f.trailLen]
	s.pending = s.pending[:f.pendingLen]
	s.aliveR, s.aliveF = f.aliveR, f.aliveF
}

// walkCourse explores every sensitization-vector combination of one
// resolved course, restricted — when firstVecs is non-nil — to the
// given subset of the first hop's vectors (the sharding axis of the
// parallel EnumerateCourse; nil explores all of them).
func (s *searcher) walkCourse(start *netlist.Node, hops []courseHop, firstVecs []cell.Vector) {
	s.start = start
	s.aliveR, s.aliveF = true, true
	s.curRising = true
	s.courseHops = hops
	f := s.save()
	defer s.restore(f)
	if !s.assign(start.ID, logic.DualTransition) {
		return
	}
	s.pathNodes = append(s.pathNodes[:0], start.Name)
	s.pathSig = sig128{}.absorb(uint64(start.ID))
	s.walkHops(firstVecs, 0, 0)
}

// walkHops explores hops[i:] of the current course, iterating hop i's
// vectors from vec0 — (i, vec0) is (0, 0) for a fresh walk and the
// donated frontier position when a stolen subtree resumes. firstVecs,
// when non-nil, restricts hop 0 (the parallel sharding axis).
func (s *searcher) walkHops(firstVecs []cell.Vector, i, vec0 int) {
	if s.stopped {
		return
	}
	hops := s.courseHops
	if i == len(hops) {
		s.record()
		return
	}
	h := hops[i]
	vecs := h.gate.Cell.Vectors(h.pin)
	if i == 0 && firstVecs != nil {
		vecs = firstVecs
	}
	fi := len(s.frames)
	s.frames = append(s.frames, donFrame{hop: i, arcDepth: len(s.arcs), vec: vec0})
	for vi := vec0; vi < len(vecs); vi++ {
		if s.stopped {
			break
		}
		fr := &s.frames[fi]
		if fr.donated {
			break
		}
		fr.vec = vi
		s.tryArc(h.gate, h.pin, vecs[vi], func(*netlist.Node) { s.walkHops(firstVecs, i+1, 0) })
	}
	s.frames = s.frames[:fi]
}

// searchFrom runs the DFS for one launching primary input, exploring
// both edges simultaneously via the dual values.
func (s *searcher) searchFrom(in *netlist.Node) {
	s.start = in
	s.aliveR, s.aliveF = true, true
	s.curRising = true
	s.inputStart = s.steps
	s.inputExhausted = false
	s.trace(obs.Event{Kind: "input", Input: in.Name, Steps: s.steps, Worker: s.worker})
	f := s.save()
	if s.assign(in.ID, logic.DualTransition) {
		s.pathNodes = append(s.pathNodes[:0], in.Name)
		s.pathSig = sig128{}.absorb(uint64(in.ID))
		s.extend(in)
		s.pathNodes = s.pathNodes[:0]
		s.arcs = s.arcs[:0]
	}
	s.restore(f)
}

// resumeUnit runs one stolen subtree: the launch assignment and the
// donated decision prefix are replayed (rebuilding the constraint
// store without re-charging the budget), then the DFS continues from
// the frontier branch the donor never expanded.
func (s *searcher) resumeUnit(in *netlist.Node, r *resumePoint) {
	s.start = in
	s.aliveR, s.aliveF = true, true
	s.curRising = true
	s.inputExhausted = false
	if r.hop >= 0 {
		s.courseHops = r.hops
	}
	if s.metrics != nil && !r.donated.IsZero() {
		s.metrics.StealResumeNs.Observe(time.Since(r.donated))
	}
	if s.ng != nil {
		// Inherit the donor's learned clauses: the snapshot stamped onto
		// the resume point includes everything the donor had published
		// when it offered the subtree.
		s.ng.adopt(r.ngs)
	}
	s.trace(obs.Event{Kind: "resume", Input: in.Name, Steps: s.steps, Worker: s.worker})
	f := s.save()
	if s.assign(in.ID, logic.DualTransition) {
		s.pathNodes = append(s.pathNodes[:0], in.Name)
		s.pathSig = sig128{}.absorb(uint64(in.ID))
		s.replay(r, 0)
		s.pathNodes = s.pathNodes[:0]
		s.arcs = s.arcs[:0]
	}
	s.restore(f)
}

// replay re-descends prefix[i:] of a donated subtree with accounting
// suppressed, then hands control to the frontier frame's remaining
// branches. A prefix arc that conflicts here would have conflicted for
// the donor too, so the recursion simply unwinds.
func (s *searcher) replay(r *resumePoint, i int) {
	if i == len(r.prefix) {
		if r.hop >= 0 {
			s.walkHops(nil, r.hop, r.vec)
		} else {
			head := s.start
			if i > 0 {
				head = r.prefix[i-1].Gate.Out
			}
			s.extendFrom(head, r.ref, r.vec)
		}
		return
	}
	a := r.prefix[i]
	s.replaying = true
	s.tryArc(a.Gate, a.Pin, a.Vec, func(*netlist.Node) {
		s.replaying = false
		s.replay(r, i+1)
		s.replaying = true
	})
	s.replaying = false
}

// implWork is one pending forward implication: intersect val into nid.
type implWork struct {
	nid int
	val logic.Dual
}

// assign intersects val into the node's current value (per alive
// scenario) and forward-propagates implications through the fanout. A
// scenario whose intersection conflicts is killed; assign fails only when
// no scenario stays alive.
func (s *searcher) assign(nid int, val logic.Dual) bool {
	s.implQueue = append(s.implQueue[:0], implWork{nid, val})
	for head := 0; head < len(s.implQueue); head++ {
		w := s.implQueue[head]
		cur := s.values[w.nid]
		if s.rec != nil {
			// Learning recorder: the intersection below depends on the
			// pre-existing value, so it is a read of this net.
			s.rec.noteRead(w.nid, cur)
		}
		next := cur
		changed := false
		if s.aliveR {
			nv, ok := logic.Intersect(cur.Rise, w.val.Rise)
			if !ok {
				s.aliveR = false
				if !s.replaying {
					s.conflicts++
				}
			} else if nv != cur.Rise {
				next.Rise = nv
				changed = true
			}
		}
		if s.aliveF {
			nv, ok := logic.Intersect(cur.Fall, w.val.Fall)
			if !ok {
				s.aliveF = false
				if !s.replaying {
					s.conflicts++
				}
			} else if nv != cur.Fall {
				next.Fall = nv
				changed = true
			}
		}
		if !s.aliveR && !s.aliveF {
			return false
		}
		if !changed {
			continue
		}
		s.trail = append(s.trail, trailEntry{w.nid, cur})
		s.values[w.nid] = next
		if s.rec != nil {
			s.rec.noteWrite(w.nid)
		}
		// Forward implication: re-evaluate every fanout gate.
		for _, ref := range s.c.Nodes[w.nid].Fanout {
			g := ref.Gate
			implied := s.evalGate(g)
			s.implQueue = append(s.implQueue, implWork{g.Out.ID, implied})
		}
	}
	return true
}

// evalGate computes the gate output dual from the current fanin values.
func (s *searcher) evalGate(g *netlist.Gate) logic.Dual {
	ids := s.gateFanins[g.ID]
	for i, nid := range ids {
		d := s.values[nid]
		if s.rec != nil {
			s.rec.noteRead(nid, d)
		}
		s.scratchR[i] = d.Rise
		s.scratchF[i] = d.Fall
	}
	return logic.Dual{
		Rise: g.Cell.EvalFast(s.scratchR[:len(ids)]),
		Fall: g.Cell.EvalFast(s.scratchF[:len(ids)]),
	}
}

// withVector applies one sensitization decision: the side values of vec
// are asserted and forward-propagated (early conflict detection), their
// justification obligations queued for path completion, and cont runs if
// no contradiction surfaced. A decision a learned nogood proves dead is
// pruned up front; a decision that dies here (or whose arc tryArc finds
// unviable) is recorded as a new nogood.
//
// stalint:noalloc one decision application is budget accounting, a
// constraint-frame save, side-value assertion and forward implication —
// zero allocations per step (TestSearchStepDisabledZeroAlloc)
func (s *searcher) withVector(g *netlist.Gate, vec cell.Vector, cont func()) {
	// The nogood lookup runs before any accounting: a pruned decision is
	// rejected before stepBudget.take(), so learning strictly reduces
	// the step count and cannot perturb the truncation contract
	// (truncated results stay a subset of the serial untruncated set).
	// Replayed prefix decisions succeeded for the donor under the very
	// store state the replay rebuilds, so a sound nogood can never match
	// one — skipping the lookup makes that structural and keeps replayed
	// frames out of LearnStats, matching their step/conflict suppression.
	if s.ng != nil && !s.replaying && s.ng.match(s, g, vec) {
		return
	}
	// Decision-application latency (accounting, constraint save, side
	// assertion and forward implication — the subtree under the decision
	// is excluded). t0 stays zero, with no clock read, when metrics are
	// off.
	var t0 time.Time
	if s.metrics != nil {
		t0 = time.Now()
	}
	switch {
	case s.replaying:
		// Re-descending a stolen prefix: the donor already charged
		// these decisions to the budget and the counters; the thief
		// only rebuilds the constraint state.
	case s.sched != nil:
		// Parallel mode: every decision draws on the shared global
		// budget, so the pool truncates at exactly the serial step
		// ceiling no matter how the units were distributed.
		if !s.budget.take() {
			s.stopped = true
			s.truncate(TruncMaxSteps)
			s.traceTruncate(TruncMaxSteps, "")
			return
		}
		s.steps++
		if s.eng.Opts.Progress != nil && s.steps%s.progressEvery == 0 {
			s.progress(false)
		}
		if s.steps%s.stealPoll == 0 {
			if s.abort.Load() {
				s.stopped = true
				return
			}
			s.maybeDonate()
			if s.ng != nil {
				// Periodic lock-free nogood exchange, on the same
				// cadence as the donation poll.
				s.ng.exchange(s.ngBoard)
			}
		}
	default:
		s.steps++
		if s.eng.Opts.Progress != nil && s.steps%s.progressEvery == 0 {
			s.progress(false)
		}
		if max := s.eng.Opts.MaxSteps; max > 0 && s.steps > max {
			s.stopped = true
			s.truncate(TruncMaxSteps)
			s.traceTruncate(TruncMaxSteps, "")
			return
		}
		if s.inputQuota > 0 && s.steps-s.inputStart > s.inputQuota {
			s.inputExhausted = true
			s.quotaExhausts++
			s.truncate(TruncInputQuota)
			s.traceTruncate(TruncInputQuota, s.start.Name)
			return
		}
	}
	if s.sampleEvery > 0 {
		s.sampleTick++
		if s.sampleTick%s.sampleEvery == 0 {
			s.traceStep()
		}
	}
	f := s.save()
	ok := s.assertVector(g, vec)
	if s.metrics != nil {
		s.metrics.StepNs.Observe(time.Since(t0))
	}
	if ok {
		s.contDead = false
		// stalint:ignore noalloc the continuation is invoked, not allocated, here; the literals are stack-passed through the DFS and their bodies are scanned at their creation sites
		cont()
		if s.contDead {
			s.contDead = false
			if s.ng != nil && !s.replaying {
				s.learnDecision(g, vec, f, kindDeadArc, s.curRising)
			}
		}
	} else if s.ng != nil && !s.replaying {
		s.learnDecision(g, vec, f, kindConflict, false)
	}
	s.restore(f)
}

// extend grows the path from the current node through every fanout gate
// and sensitization vector.
func (s *searcher) extend(n *netlist.Node) {
	if s.stopped || s.inputExhausted {
		return
	}
	if n.IsOutput && len(s.arcs) > 0 {
		s.record()
		if s.stopped {
			return
		}
	}
	s.extendFrom(n, 0, 0)
}

// extendFrom iterates the fanout branches of n starting at position
// (ref0, vec0) — (0, 0) for a normal traversal, the donated frontier
// when a stolen subtree resumes mid-frame.
func (s *searcher) extendFrom(n *netlist.Node, ref0, vec0 int) {
	fi := len(s.frames)
	s.frames = append(s.frames, donFrame{node: n, hop: -1, arcDepth: len(s.arcs), ref: ref0, vec: vec0})
	for ri := ref0; ri < len(n.Fanout); ri++ {
		ref := n.Fanout[ri]
		g := ref.Gate
		if s.prune != nil && !s.prune.viable(s, g) {
			continue
		}
		vecs := g.Cell.Vectors(ref.Pin)
		v0 := 0
		if ri == ref0 {
			v0 = vec0
		}
		for vi := v0; vi < len(vecs); vi++ {
			if s.stopped || s.inputExhausted {
				s.frames = s.frames[:fi]
				return
			}
			fr := &s.frames[fi]
			if fr.donated {
				s.frames = s.frames[:fi]
				return
			}
			fr.ref, fr.vec = ri, vi
			s.tryArc(g, ref.Pin, vecs[vi], func(out *netlist.Node) { s.extend(out) })
		}
	}
	s.frames = s.frames[:fi]
}

// tryArc applies one (gate, pin, vector) sensitization decision: side
// values asserted, path viability re-checked against the expected edge
// polarity, and cont invoked with the gate output as the new path head.
func (s *searcher) tryArc(g *netlist.Gate, pin string, vec cell.Vector, cont func(out *netlist.Node)) {
	s.withVector(g, vec, func() {
		nextRising, ok := g.Cell.OutputEdge(vec, s.curRising)
		if !ok {
			s.contDead = true
			return
		}
		out := g.Out
		v := s.values[out.ID]
		okR := s.aliveR && viable(v.Rise, nextRising)
		okF := s.aliveF && viable(v.Fall, !nextRising)
		if !okR && !okF {
			s.contDead = true
			return
		}
		savedR, savedF, savedPol, savedSig := s.aliveR, s.aliveF, s.curRising, s.pathSig
		s.aliveR, s.aliveF, s.curRising = okR, okF, nextRising
		s.pathSig = s.pathSig.absorb(arcToken(g.ID, pinIndex(g.Cell.Inputs, pin), vec.Case))
		s.pathNodes = append(s.pathNodes, out.Name)
		s.arcs = append(s.arcs, Arc{g, pin, vec})
		cont(out)
		s.pathNodes = s.pathNodes[:len(s.pathNodes)-1]
		s.arcs = s.arcs[:len(s.arcs)-1]
		s.aliveR, s.aliveF, s.curRising, s.pathSig = savedR, savedF, savedPol, savedSig
	})
}

// nextBranch returns the branch position after (ref, vec) on node n,
// ok=false when the frame is exhausted.
func nextBranch(n *netlist.Node, ref, vec int) (int, int, bool) {
	fo := n.Fanout[ref]
	if vec+1 < len(fo.Gate.Cell.Vectors(fo.Pin)) {
		return ref, vec + 1, true
	}
	if ref+1 < len(n.Fanout) {
		return ref + 1, 0, true
	}
	return 0, 0, false
}

// maybeDonate hands the shallowest unexplored branch range of the
// current DFS to a hungry peer: the thief resumes at the branch after
// the donor's in-flight position, and the donor stops at that frame
// once the in-flight branch completes — the two ranges partition the
// frame exactly, so no subtree is lost or visited twice. Only called
// from withVector (poll period Options.StealPollSteps), so every live
// frame has a branch in flight and its position fields are valid.
//
// stalint:coldpath donation allocates a decision-prefix copy, paid once
// per donated subtree and amortized over the StealPollSteps cadence
func (s *searcher) maybeDonate() {
	if s.sched == nil || s.sched.hungry.Load() == 0 {
		return
	}
	for fi := range s.frames {
		fr := &s.frames[fi]
		if fr.donated {
			continue
		}
		r := &resumePoint{hop: -1}
		if fr.hop >= 0 {
			// Course mode: hop 0 iterates the parallel shard's own
			// vector slice, never donated (it is the sharding axis).
			h := s.courseHops[fr.hop]
			if fr.hop == 0 || fr.vec+1 >= len(h.gate.Cell.Vectors(h.pin)) {
				continue
			}
			r.hop, r.vec, r.hops = fr.hop, fr.vec+1, s.courseHops
		} else {
			ref, vec, ok := nextBranch(fr.node, fr.ref, fr.vec)
			if !ok {
				continue
			}
			r.ref, r.vec = ref, vec
		}
		r.prefix = append([]Arc(nil), s.arcs[:fr.arcDepth]...)
		if s.ng != nil && s.ngBoard != nil {
			// Donate the learned clauses with the subtree: publish this
			// worker's fresh nogoods and stamp the resulting snapshot so
			// the thief starts with everything the donor knows.
			s.ng.exportTo(s.ngBoard)
			r.ngs = s.ngBoard.snap.Load()
		}
		if s.metrics != nil {
			r.donated = time.Now()
		}
		if !s.sched.offer(s.worker, task{shard: s.curShard, corner: s.curCorner, resume: r}) {
			return // deque full — keep the frame for a later poll
		}
		fr.donated = true
		s.donations++
		return
	}
}

// viable reports whether a path-node trajectory is consistent with the
// expected edge polarity under floating-mode sensitization: the node must
// settle at the expected level and must not be pinned there from the
// start (VR or VX1 for a rising node, VF or VX0 for a falling one).
func viable(v logic.Value, rising bool) bool {
	want := logic.T0
	if rising {
		want = logic.T1
	}
	return v.Final() == want && v.Initial() != want
}

// record justifies the accumulated side values and, on success, captures
// the current state as a TruePath.
func (s *searcher) record() {
	if s.eng.Opts.ComplexOnly {
		multi := false
		for _, a := range s.arcs {
			if len(a.Gate.Cell.Vectors(a.Pin)) > 1 {
				multi = true
				break
			}
		}
		if !multi {
			return
		}
	}
	// Justify the accumulated obligations. A single input cube that
	// supports both launch edges is preferred, but through reconvergent
	// XOR logic the two edges can need different cubes (flipping the
	// launch input flips downstream parities) — in that case each alive
	// edge is justified, and recorded, on its own.
	budgetFor := func() int {
		if b := s.eng.Opts.JustifyBudget; b > 0 {
			return b
		}
		return 2000
	}
	attempt := func(keepR, keepF bool) {
		if (keepR && !s.aliveR) || (keepF && !s.aliveF) {
			return
		}
		f := s.save()
		defer s.restore(f)
		s.aliveR, s.aliveF = keepR, keepF
		budget := budgetFor()
		if !s.justifyFirst(append([]obligation(nil), s.pending...), &budget) {
			if budget <= 0 {
				s.justAborts++
			}
			return
		}
		s.emit()
	}
	if s.aliveR && s.aliveF {
		f := s.save()
		budget := budgetFor()
		joint := s.justifyFirst(append([]obligation(nil), s.pending...), &budget)
		if joint {
			s.emit()
		}
		s.restore(f)
		if joint {
			return
		}
		if budget <= 0 {
			// The joint search thrashed out rather than proving
			// unsatisfiability; the per-edge searches would thrash the
			// same way — count one abort and move on.
			s.justAborts++
			return
		}
		attempt(true, false)
		attempt(false, true)
		return
	}
	attempt(s.aliveR, s.aliveF)
}

// emit captures the (justified) current state as a TruePath. The
// variant identity is the incremental path signature extended with the
// settled cube trits and the surviving edge bits — the dedupe check
// runs before any allocation, so a duplicate variant costs zero
// allocations and zero string work; a fresh one allocates only the
// path record itself (its sort keys are built lazily, at compare
// time).
//
// stalint:noalloc the region up to the dedupe gate runs on every
// justified variant and must stay allocation-free
// (TestEmitDedupeZeroAllocs); the alloc-ok marker below ends the
// checked region where a fresh variant pays its materialization
func (s *searcher) emit() {
	vsig := s.pathSig
	for _, in := range s.c.Inputs {
		if in == s.start {
			continue
		}
		v := s.values[in.ID]
		pick := v.Rise
		if !s.aliveR {
			pick = v.Fall
		}
		vsig = vsig.absorb(uint64(pick.Final()))
	}
	var edgeBits uint64
	if s.aliveR {
		edgeBits |= 1
	}
	if s.aliveF {
		edgeBits |= 2
	}
	vsig = vsig.absorb(edgeBits)
	if _, dup := s.seen[vsig]; dup {
		s.deduped++
		return
	}
	// stalint:alloc-ok a fresh variant materializes its path record once; only the pre-dedupe region carries the zero-alloc contract
	s.seen[vsig] = struct{}{}
	s.recorded++
	// Emit cost is measured only past the dedupe check, so duplicate
	// variants keep their zero-allocation, zero-clock contract.
	var t0 time.Time
	if s.metrics != nil {
		t0 = time.Now()
	}

	cube := sim.InputCube{}
	for _, in := range s.c.Inputs {
		if in == s.start {
			continue
		}
		v := s.values[in.ID]
		pick := v.Rise
		if !s.aliveR {
			pick = v.Fall
		}
		// Cube entries are the settled (second-vector) levels; floating
		// mode leaves the pre-event state unconstrained.
		cube[in.Name] = pick.Final()
	}
	p := &TruePath{
		Start:  s.start.Name,
		Nodes:  append([]string(nil), s.pathNodes...),
		Arcs:   append([]Arc(nil), s.arcs...),
		Cube:   cube,
		RiseOK: s.aliveR,
		FallOK: s.aliveF,
		sig:    vsig,
	}

	if p.RiseOK {
		if d, buf, err := s.eng.pathDelay(s.dscratch, p.Arcs, true); err == nil {
			p.RiseDelay, s.dscratch = d, buf
		}
	}
	if p.FallOK {
		if d, buf, err := s.eng.pathDelay(s.dscratch, p.Arcs, false); err == nil {
			p.FallDelay, s.dscratch = d, buf
		}
	}
	if s.metrics != nil {
		s.metrics.EmitNs.Observe(time.Since(t0))
	}
	if s.eng.Opts.Tracer != nil {
		edges := ""
		if p.RiseOK {
			edges += "R"
		}
		if p.FallOK {
			edges += "F"
		}
		s.trace(obs.Event{Kind: "path", Path: p.String(), Edges: edges,
			DelayPs: p.WorstDelay() * 1e12, Steps: s.steps})
	}
	if s.prune != nil {
		s.prune.add(p)
		return
	}
	s.paths = append(s.paths, p)
	if max := s.eng.Opts.MaxVariants; max > 0 && len(s.paths) >= max {
		s.stopped = true
		s.truncate(TruncMaxVariants)
		if s.abort != nil {
			// Tell the peers searching the same corner to stop at their
			// next poll; the merge keeps the best MaxVariants of
			// whatever the pool recorded before the cap landed.
			s.abort.Store(true)
		}
		s.traceTruncate(TruncMaxVariants, "")
	}
}

// statsSnapshot copies the instrumentation counters.
func (s *searcher) statsSnapshot() SearchStats {
	return SearchStats{
		SensitizationAttempts: s.steps,
		Conflicts:             s.conflicts,
		Backtracks:            s.backtracks,
		JustificationAborts:   s.justAborts,
		InputQuotaExhaustions: s.quotaExhausts,
		PathsRecorded:         s.recorded,
		PathsDeduped:          s.deduped,
		Truncation:            s.truncWhy,
	}
}

// learnSnapshot copies the conflict-learning counters (zero when
// learning is off).
func (s *searcher) learnSnapshot() LearnStats {
	if s.ng == nil {
		return LearnStats{}
	}
	return s.ng.stats
}

// result packages the recorded paths and publishes the instrumentation
// snapshot on the engine.
func (s *searcher) result() *Result {
	if s.prune != nil {
		s.paths = s.prune.all()
	}
	sortPaths(s.paths)
	courses, multi := countCourses(s.paths)
	stats := s.statsSnapshot()
	s.eng.publishStats(stats, int(s.recorded))
	s.eng.publishLearnStats(s.learnSnapshot())
	s.progress(true)
	s.trace(obs.Event{Kind: "done", Steps: s.steps, N: s.recorded})
	return &Result{
		Paths:               s.paths,
		Courses:             courses,
		MultiVectorCourses:  multi,
		Truncated:           s.truncated,
		Truncation:          s.truncWhy,
		Steps:               s.steps,
		JustificationAborts: s.justAborts,
		Stats:               stats,
	}
}

// countCourses returns the number of distinct courses among paths and
// how many of them carry more than one recorded variant.
func countCourses(paths []*TruePath) (courses, multi int) {
	byCourse := map[string]int{}
	for _, p := range paths {
		byCourse[p.CourseKey()]++
	}
	for _, n := range byCourse {
		if n > 1 {
			multi++
		}
	}
	return len(byCourse), multi
}
