package core

import (
	"strings"
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
	eng   *Engine
	graph *searchGraph     // the engine's compiled circuit, shared read-only
	c     *netlist.Circuit // the names behind the graph's IDs, for records and events

	values         []logic.Dual
	trail          []trailEntry
	aliveR, aliveF bool
	pending        []obligation // side values awaiting end-of-path justification

	start int32    // the launch input's node ID
	arcs  []arcRef // the current partial path
	// course restricts the search to one fixed course (EnumerateCourse):
	// at arc depth d only the fanout refs whose gate drives node
	// course[d] are followed, and a path is recorded only once the whole
	// course is traversed. nil in the free search.
	course []int32
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

	// Instrumentation counters (plain int64: each searcher runs on one
	// worker; the merge reads them through statsSnapshot).
	conflicts     int64
	backtracks    int64
	recorded      int64
	deduped       int64
	progressEvery int64

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
	// arrs is the K-worst arrival stack: the launch seed, then the
	// exact arrival after each traversed arc, pushed and popped with
	// s.arcs (nil outside K-worst).
	arrs []arrival

	// Work-stealing state, wired by sched.searcher. The searcher draws
	// every decision from its corner's shared budget, polls for hungry
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
	// MaxVariants cap: its corner's flag (poolCorner), shared by every
	// worker searching that corner, so one capped corner never stops
	// the others.
	abort     *atomic.Bool
	stealPoll int64
	replaying bool
	frames    []donFrame
	donations int64

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
// path head, the branch position currently being explored (fanout ref
// × vector) and the arc depth of the frame, whose prefix replays the
// constraint state. Donating marks the frame; the owner stops before
// starting any branch after the donated position.
type donFrame struct {
	node     int32 // the path head
	arcDepth int   // len(s.arcs) when the frame was pushed
	ref, vec int   // branch currently in flight
	donated  bool  // branches after (ref, vec) were handed away
}

type trailEntry struct {
	nid int32
	old logic.Dual
}

// frame snapshots the searcher for backtracking.
type frame struct {
	trailLen       int
	pendingLen     int
	aliveR, aliveF bool
}

// newSearcher builds a searcher on e. Its callers have already
// rejected a cyclic circuit and built the search graph (warmShared,
// cornerEngines).
func newSearcher(e *Engine) *searcher {
	// Pre-size the dedupe set from the previous run's recorded-path
	// count (the engine-level hint) so steady-state re-runs never grow
	// the map incrementally.
	hint := e.pathHint
	if hint < 16 {
		hint = 16
	}
	s := &searcher{
		eng:    e,
		graph:  e.graph,
		c:      e.Circuit,
		values: make([]logic.Dual, len(e.Circuit.Nodes)+1),
		seen:   make(map[sig128]struct{}, hint),
	}
	for i := range s.values {
		s.values[i] = logic.DualX
	}
	s.values[s.graph.pad] = logic.Dual{Rise: logic.V0, Fall: logic.V0}
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
	return s
}

// truncate marks the search truncated, keeping the strongest reason
// seen.
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
func (s *searcher) traceTruncate(why TruncReason) {
	if s.eng.Opts.Tracer == nil {
		return
	}
	s.trace(obs.Event{Kind: "truncate", Detail: why.String(), Steps: s.steps})
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
		Sig: s.pathSig.hex(), Worker: s.worker, Input: s.c.Nodes[s.start].Name}
	if s.replaying {
		ev.Detail = "replay"
	}
	t.Emit(ev)
}

// progress fires the periodic progress callback (the pool's fan-in
// hook, progressAgg.hook).
//
// stalint:coldpath opt-in callback, throttled to once per progressEvery
// decisions; the callback's cost belongs to its provider
func (s *searcher) progress() {
	p := s.eng.Opts.Progress
	if p == nil {
		return
	}
	p(ProgressInfo{Steps: s.steps, Paths: s.recorded, Input: s.c.Nodes[s.start].Name})
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

// runUnit runs one work unit of the launch input in: its whole cone
// when r is nil (a root unit), otherwise a donated subtree of it. The
// launch assignment is made, the unit's decision prefix is replayed
// (rebuilding the constraint store without re-charging the budget) and
// the DFS continues from the frontier branch the donor never expanded.
// A root unit is the nil-prefix case: its frontier is the launch
// input's first branch.
func (s *searcher) runUnit(in int32, r *resumePoint) {
	s.start = in
	s.aliveR, s.aliveF = true, true
	s.curRising = true
	var root resumePoint
	if r == nil {
		r = &root
		s.trace(obs.Event{Kind: "input", Input: s.c.Nodes[in].Name, Steps: s.steps, Worker: s.worker})
	} else {
		if s.metrics != nil && !r.donated.IsZero() {
			s.metrics.StealResumeNs.Observe(time.Since(r.donated))
		}
		s.trace(obs.Event{Kind: "resume", Input: s.c.Nodes[in].Name, Steps: s.steps, Worker: s.worker})
	}
	f := s.save()
	if s.assign(in, logic.DualTransition) {
		if s.prune != nil {
			s.arrs = append(s.arrs[:0], launchArrival(s.eng))
		}
		s.pathSig = sig128{}.absorb(uint64(in))
		s.replay(r, 0)
		s.arcs = s.arcs[:0]
	}
	s.restore(f)
}

// replay re-descends prefix[i:] of a unit's decision prefix with
// accounting suppressed, then hands control to the frontier frame's
// remaining branches. A prefix arc that conflicts here would have
// conflicted for the donor too, so the recursion simply unwinds. In
// K-worst mode each prefix arc passes the candidate check again, which
// rebuilds the arrival stack; a prefix that the threshold has overtaken
// since the donation unwinds too.
func (s *searcher) replay(r *resumePoint, i int) {
	if i == len(r.prefix) {
		head := s.start
		if i > 0 {
			head = s.graph.gates[r.prefix[i-1].gate].out
		}
		s.extendFrom(head, r.ref, r.vec)
		return
	}
	a := r.prefix[i]
	var at arrival
	if s.prune != nil {
		var ok bool
		if at, ok = s.prune.admit(s, a); !ok {
			return
		}
	}
	s.replaying = true
	s.tryArc(a, at, func(int32) {
		s.replaying = false
		s.replay(r, i+1)
		s.replaying = true
	})
	s.replaying = false
}

// implWork is one pending forward implication: intersect val into nid.
type implWork struct {
	nid int32
	val logic.Dual
}

// assign intersects val into the node's current value (per alive
// scenario) and forward-propagates implications through the fanout. A
// scenario whose intersection conflicts is killed; assign fails only when
// no scenario stays alive.
func (s *searcher) assign(nid int32, val logic.Dual) bool {
	gr := s.graph
	s.implQueue = append(s.implQueue[:0], implWork{nid, val})
	q := s.implQueue // a local header for the loop, stored back on exit
	for head := 0; head < len(q); head++ {
		w := q[head]
		cur := s.values[w.nid]
		next := cur
		if s.aliveR {
			if nv, ok := logic.Intersect(cur.Rise, w.val.Rise); !ok {
				s.aliveR = false
				if !s.replaying {
					s.conflicts++
				}
			} else {
				next.Rise = nv
			}
		}
		if s.aliveF {
			if nv, ok := logic.Intersect(cur.Fall, w.val.Fall); !ok {
				s.aliveF = false
				if !s.replaying {
					s.conflicts++
				}
			} else {
				next.Fall = nv
			}
		}
		if !s.aliveR && !s.aliveF {
			s.implQueue = q
			return false
		}
		if next == cur {
			continue
		}
		s.trail = append(s.trail, trailEntry{w.nid, cur})
		s.values[w.nid] = next
		// Forward implication: re-evaluate every fanout gate.
		for _, g := range gr.foGate[gr.foOff[w.nid]:gr.foOff[w.nid+1]] {
			gg := &gr.gates[g]
			q = append(q, implWork{gg.out, s.evalGate(gg)})
		}
	}
	s.implQueue = q
	return true
}

// evalGate computes the gate output dual from the current fanin values:
// each scenario's fanin Values fold into one row of the cell's table
// (the pad nets of a narrow cell fold in as leading zeros).
func (s *searcher) evalGate(gg *graphGate) logic.Dual {
	rise, fall := 0, 0
	for _, nid := range gg.fanin {
		d := s.values[nid]
		rise = cell.Fold(rise, d.Rise)
		fall = cell.Fold(fall, d.Fall)
	}
	t := s.graph.tables[gg.cell]
	return logic.Dual{Rise: t[rise], Fall: t[fall]}
}

// withVector applies one sensitization decision: the side values of
// vector vi on gate g are asserted and forward-propagated (early conflict
// detection), their justification obligations queued for path
// completion, and cont runs if no contradiction surfaced.
//
// stalint:noalloc one decision application is budget accounting, a
// constraint-frame save, side-value assertion and forward implication —
// zero allocations per step (TestSearchStepDisabledZeroAlloc)
func (s *searcher) withVector(g, vi int32, cont func()) {
	// Decision-application latency (accounting, constraint save, side
	// assertion and forward implication — the subtree under the decision
	// is excluded). t0 stays zero, with no clock read, when metrics are
	// off.
	var t0 time.Time
	if s.metrics != nil {
		t0 = time.Now()
	}
	// Replayed decisions (a stolen prefix being re-descended) were
	// already charged to the budget and the counters by the donor; the
	// thief only rebuilds the constraint state. Every other decision
	// draws on the corner's shared budget, so the pool truncates at
	// exactly MaxSteps no matter how the units were distributed.
	if !s.replaying {
		if !s.budget.take() {
			s.stopped = true
			s.truncate(TruncMaxSteps)
			s.traceTruncate(TruncMaxSteps)
			return
		}
		s.steps++
		if s.eng.Opts.Progress != nil && s.steps%s.progressEvery == 0 {
			s.progress()
		}
		if s.steps%s.stealPoll == 0 {
			if s.abort.Load() {
				s.stopped = true
				return
			}
			s.maybeDonate()
		}
	}
	if s.sampleEvery > 0 {
		s.sampleTick++
		if s.sampleTick%s.sampleEvery == 0 {
			s.traceStep()
		}
	}
	f := s.save()
	ok := s.assertVector(g, vi)
	if s.metrics != nil {
		s.metrics.StepNs.Observe(time.Since(t0))
	}
	if ok {
		// stalint:ignore noalloc the continuation is invoked, not allocated, here; the literals are stack-passed through the DFS and their bodies are scanned at their creation sites
		cont()
	}
	s.restore(f)
}

// extend grows the path from the current node through every fanout gate
// and sensitization vector, recording it first when n is an output —
// under a course, only once the whole course is traversed. Every call
// follows an arc (a unit's launch input goes straight to extendFrom),
// so with no course the recording check needs no arc-count test.
func (s *searcher) extend(n int32) {
	if s.stopped {
		return
	}
	if s.graph.output[n] && len(s.arcs) >= len(s.course) {
		s.record()
		if s.stopped {
			return
		}
	}
	s.extendFrom(n, 0, 0)
}

// extendFrom iterates the fanout branches of n starting at position
// (ref0, vec0) — (0, 0) for a normal traversal, the donated frontier
// when a stolen subtree resumes mid-frame. Under a course only the refs
// whose gate drives the course's next node are followed — both entries
// of a gate that n feeds on two pins — and none once the course is
// complete. In K-worst mode a ref whose gate output is a dead end is
// skipped, and each (ref, vector) arc passes the pruner's candidate
// check before it is tried.
func (s *searcher) extendFrom(n int32, ref0, vec0 int) {
	gr := s.graph
	onCourse := int32(-1)
	if s.course != nil {
		if len(s.arcs) == len(s.course) {
			return
		}
		onCourse = s.course[len(s.arcs)]
	}
	gates, pins := gr.fanout(n)
	fi := len(s.frames)
	s.frames = append(s.frames, donFrame{node: n, arcDepth: len(s.arcs), ref: ref0, vec: vec0})
	for ri := ref0; ri < len(gates); ri++ {
		g := gates[ri]
		if onCourse >= 0 && gr.gates[g].out != onCourse {
			continue
		}
		if s.prune != nil && !s.prune.viable(gr.gates[g].out) {
			continue
		}
		lo, hi := gr.vecRange(g, pins[ri])
		v0 := 0
		if ri == ref0 {
			v0 = vec0
		}
		for vi := v0; vi < int(hi-lo); vi++ {
			if s.stopped {
				s.frames = s.frames[:fi]
				return
			}
			fr := &s.frames[fi]
			if fr.donated {
				s.frames = s.frames[:fi]
				return
			}
			fr.ref, fr.vec = ri, vi
			a := arcRef{gate: g, pin: pins[ri], vec: uint8(vi)}
			var at arrival
			if s.prune != nil {
				var ok bool
				if at, ok = s.prune.admit(s, a); !ok {
					continue
				}
			}
			s.tryArc(a, at, func(out int32) { s.extend(out) })
		}
	}
	s.frames = s.frames[:fi]
}

// tryArc applies one sensitization decision, arc a: side values
// asserted, path viability re-checked against the expected edge
// polarity, and cont invoked with the gate output as the new path head.
// In K-worst mode at, the arrival after the arc, is pushed on the
// arrival stack for the subtree.
func (s *searcher) tryArc(a arcRef, at arrival, cont func(out int32)) {
	vi := s.graph.vecID(a)
	s.withVector(a.gate, vi, func() {
		gr := s.graph
		e := gr.vecs[vi].edge[edgeIndex(s.curRising)]
		if e < 0 {
			return
		}
		nextRising := e == 1
		out := gr.gates[a.gate].out
		v := s.values[out]
		okR := s.aliveR && viable(v.Rise, nextRising)
		okF := s.aliveF && viable(v.Fall, !nextRising)
		if !okR && !okF {
			return
		}
		savedR, savedF, savedPol, savedSig := s.aliveR, s.aliveF, s.curRising, s.pathSig
		s.aliveR, s.aliveF, s.curRising = okR, okF, nextRising
		s.pathSig = s.pathSig.absorb(arcToken(int(a.gate), int(a.pin), int(a.vec)+1))
		s.arcs = append(s.arcs, a)
		if s.prune != nil {
			s.arrs = append(s.arrs, at)
		}
		cont(out)
		if s.prune != nil {
			s.arrs = s.arrs[:len(s.arrs)-1]
		}
		s.arcs = s.arcs[:len(s.arcs)-1]
		s.aliveR, s.aliveF, s.curRising, s.pathSig = savedR, savedF, savedPol, savedSig
	})
}

// nextBranch returns the branch position after (ref, vec) on node n —
// under a course, the next one on course — and ok=false when the frame
// has no such branch left.
func (s *searcher) nextBranch(n int32, ref, vec, depth int) (int, int, bool) {
	gr := s.graph
	gates, pins := gr.fanout(n)
	if lo, hi := gr.vecRange(gates[ref], pins[ref]); vec+1 < int(hi-lo) {
		return ref, vec + 1, true
	}
	for ref++; ref < len(gates); ref++ {
		if s.course == nil || gr.gates[gates[ref]].out == s.course[depth] {
			return ref, 0, true
		}
	}
	return 0, 0, false
}

// maybeDonate hands the shallowest unexplored branch range of the
// current DFS to a hungry peer: the thief resumes at the branch after
// the donor's in-flight position, and the donor stops at that frame
// once the in-flight branch completes — the two ranges partition the
// frame exactly, so no subtree is lost or visited twice. Under a course
// the range starts at the frame's next on-course branch, and a frame
// with none left is skipped. Only called from withVector (poll period
// Options.StealPollSteps), so every live frame has a branch in flight
// and its position fields are valid.
//
// stalint:coldpath donation allocates a decision-prefix copy, paid once
// per donated subtree and amortized over the StealPollSteps cadence
func (s *searcher) maybeDonate() {
	if s.sched.hungry.Load() == 0 {
		return
	}
	for fi := range s.frames {
		fr := &s.frames[fi]
		if fr.donated {
			continue
		}
		ref, vec, ok := s.nextBranch(fr.node, fr.ref, fr.vec, fr.arcDepth)
		if !ok {
			continue
		}
		r := &resumePoint{prefix: append([]arcRef(nil), s.arcs[:fr.arcDepth]...), ref: ref, vec: vec}
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
			if s.graph.vecs[s.graph.vecID(a)].multi {
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
	if s.aliveR && s.aliveF {
		// A joint search that thrashed out rather than proving
		// unsatisfiability counts one abort: the per-edge searches would
		// thrash the same way.
		if joint, aborted := s.justifyEmit(true, true); joint || aborted {
			return
		}
		s.justifyEmit(true, false)
		s.justifyEmit(false, true)
		return
	}
	s.justifyEmit(s.aliveR, s.aliveF)
}

// justifyEmit justifies the obligation stack with only the keepR/keepF
// launch edges alive and emits the path on success, then restores the
// state. A search that ran out of Options.JustifyBudget (default 2,000
// backtracks) drops the path: it counts an abort and marks the result
// truncated, since a true path may be missing (traced once, at the
// searcher's first truncation).
func (s *searcher) justifyEmit(keepR, keepF bool) (ok, aborted bool) {
	f := s.save()
	s.aliveR, s.aliveF = keepR, keepF
	budget := s.eng.Opts.JustifyBudget
	if budget <= 0 {
		budget = 2000
	}
	ok = s.justifyFirst(0, &budget)
	if ok {
		s.emit()
	}
	s.restore(f)
	if !ok && budget <= 0 {
		s.justAborts++
		if s.truncWhy == TruncNone {
			s.traceTruncate(TruncJustifyBudget)
		}
		s.truncate(TruncJustifyBudget)
		return false, true
	}
	return ok, false
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
	gr := s.graph
	vsig := s.pathSig
	for _, in := range gr.inputs {
		if in == s.start {
			continue
		}
		v := s.values[in]
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

	cube := make(sim.InputCube, len(gr.inputs)-1)
	for _, in := range gr.inputs {
		if in == s.start {
			continue
		}
		v := s.values[in]
		pick := v.Rise
		if !s.aliveR {
			pick = v.Fall
		}
		// Cube entries are the settled (second-vector) levels; floating
		// mode leaves the pre-event state unconstrained.
		cube[s.c.Nodes[in].Name] = pick.Final()
	}
	// The record's names: the node sequence and the arcs, rebuilt from
	// the arc refs of the DFS stack.
	nodes := make([]string, len(s.arcs)+1)
	arcs := make([]Arc, len(s.arcs))
	nodes[0] = s.c.Nodes[s.start].Name
	for i, a := range s.arcs {
		nodes[i+1] = s.c.Nodes[gr.gates[a.gate].out].Name
		arcs[i] = gr.arc(s.c, a)
	}
	p := &TruePath{
		Start:  nodes[0],
		Nodes:  nodes,
		Arcs:   arcs,
		Cube:   cube,
		RiseOK: s.aliveR,
		FallOK: s.aliveF,
		sig:    vsig,
	}

	if p.RiseOK {
		if d, buf, err := s.eng.pathDelay(s.dscratch, s.arcs, true); err == nil {
			p.RiseDelay, s.dscratch = d, buf
		}
	}
	if p.FallOK {
		if d, buf, err := s.eng.pathDelay(s.dscratch, s.arcs, false); err == nil {
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
		// Tell the peers searching the same corner to stop at their next
		// poll; the merge keeps the best MaxVariants of whatever the pool
		// recorded before the cap landed.
		s.abort.Store(true)
		s.traceTruncate(TruncMaxVariants)
	}
}

// statsSnapshot copies the instrumentation counters.
func (s *searcher) statsSnapshot() SearchStats {
	return SearchStats{
		SensitizationAttempts: s.steps,
		Conflicts:             s.conflicts,
		Backtracks:            s.backtracks,
		JustificationAborts:   s.justAborts,
		PathsRecorded:         s.recorded,
		PathsDeduped:          s.deduped,
		Truncation:            s.truncWhy,
	}
}

// countCourses returns the number of distinct pin-level courses among
// paths and how many of them carry more than one recorded variant.
func countCourses(paths []*TruePath) (courses, multi int) {
	byCourse := map[string]int{}
	for _, p := range paths {
		byCourse[courseID(p)]++
	}
	for _, n := range byCourse {
		if n > 1 {
			multi++
		}
	}
	return len(byCourse), multi
}

// courseID is the pin-level course of a path: its node sequence plus
// the entry pin of every arc, which tells apart the courses through a
// gate that one net enters on two pins.
func courseID(p *TruePath) string {
	var b strings.Builder
	b.WriteString(p.CourseKey())
	for _, a := range p.Arcs {
		b.WriteByte('|')
		b.WriteString(a.Pin)
	}
	return b.String()
}
