package core

import (
	"tpsta/internal/logic"
)

// The justification engine: side-value assertion with single-cube
// backward implication during traversal (assertVector/assignSide), and
// the end-of-path obligation search over the prime implicants of each
// driving cell (justifyFirst). Both run on the search graph: a cell's
// cubes (cell.JustifyCubes) and vector side values are compiled once,
// their literals naming fanin slots of the gate record.

// obligation is a side value awaiting justification through its driver.
// strict obligations demand a steady value (both ends of the trajectory);
// non-strict ones only the final level (floating-mode sensitization).
type obligation struct {
	node   int32
	val    bool
	strict bool
}

// required builds the trajectory requirement of a side value.
func required(val, strict bool) logic.Value {
	if strict {
		return logic.StableOf(boolTrit(val))
	}
	return logic.FinalOf(boolTrit(val))
}

func boolTrit(b bool) logic.Trit {
	if b {
		return logic.T1
	}
	return logic.T0
}

// assertVector asserts the side values of vector vi on the fanins of
// gate g and forward-propagates them — the decision application
// withVector charges a step for. The paper applies steady values to
// the inputs of complex gates (the vector-dependent delay was
// characterized that way); simple gates need only the non-controlling
// final level (floating mode). Robust mode demands steadiness
// everywhere.
func (s *searcher) assertVector(g, vi int32) bool {
	gr := s.graph
	v := &gr.vecs[vi]
	fanin := &gr.gates[g].fanin
	strict := s.eng.Opts.Robust || v.multi
	for _, l := range gr.sides[v.side0:v.side1] {
		if !s.assignSide(fanin[l.slot], l.val, strict) {
			return false
		}
	}
	return true
}

// implied reports whether node nid's required value already follows
// from its driver's current input values in every alive scenario (or
// the node is a primary input).
func (s *searcher) implied(nid int32, val, strict bool) bool {
	d := s.graph.driver[nid]
	if d < 0 {
		return true
	}
	want := required(val, strict)
	out := s.evalGate(&s.graph.gates[d])
	if s.aliveR && !logic.Refines(out.Rise, want) {
		return false
	}
	if s.aliveF && !logic.Refines(out.Fall, want) {
		return false
	}
	return true
}

// assignSide asserts a side value on node nid — steady when strict (the
// paper applies only steady values to complex-gate inputs), final-level
// otherwise (floating mode, the semi-undetermined X0/X1 states). A value
// whose driver has exactly one supporting cube is not a decision at all:
// the cube is applied immediately (backward implication), cascading
// toward the inputs. Only genuinely ambiguous values are pushed on the
// obligation stack for justification.
func (s *searcher) assignSide(nid int32, val, strict bool) bool {
	req := required(val, strict)
	if !s.assign(nid, logic.Dual{Rise: req, Fall: req}) {
		return false
	}
	if s.implied(nid, val, strict) {
		return true
	}
	d := s.graph.driver[nid]
	if lo, hi := s.graph.cubes(d, val); hi-lo == 1 {
		return s.applyCube(d, lo, strict)
	}
	s.pending = append(s.pending, obligation{nid, val, strict})
	return true
}

// applyCube asserts every literal of cube cb, one of gate g's cubes.
func (s *searcher) applyCube(g, cb int32, strict bool) bool {
	fanin := &s.graph.gates[g].fanin
	for _, l := range s.graph.cubeLits(cb) {
		if !s.assignSide(fanin[l.slot], l.val, strict) {
			return false
		}
	}
	return true
}

// justifyFirst resolves the obligations on the stack above lo with the
// first consistent combination of justification cubes (backtracking
// over the prime implicants of each driving cell). On success the
// assignments are left applied and true is returned; on failure the
// caller restores its frame, which also drops whatever this call pushed.
//
// The obligations are one stack, s.pending, shared by every level of the
// search. A call copies its open obligations above the ones it scans,
// removes the chosen one from the copies and lets each branch push its
// new obligations on top, so the next level scans the remaining open
// obligations first, in their order, then the new ones. Nothing below lo
// is written.
//
// Justification runs when a path completes, not at every gate: during
// traversal the engine relies on forward propagation of the
// semi-undetermined values for early conflict detection — "less complex
// than a justification process" per the paper — and deciding support
// assignments only once the whole path's constraints are visible avoids
// committing to a support choice that a later gate's side requirement
// contradicts. Any one solution proves the path true (justification is
// existential); the reported cube is that solution with every
// unconstrained input left undetermined.
//
// stalint:noalloc runs at every path completion; the obligation stack
// grows by amortized self-append and is reused across completions
// (TestJustifyZeroAllocs)
func (s *searcher) justifyFirst(lo int, budget *int) bool {
	// Most-constrained-first: scan the open obligations, dropping the
	// implied ones, and branch on the first one with the fewest feasible
	// cubes (a zero-choice obligation fails immediately, a one-choice
	// obligation is an implication).
	hi := len(s.pending)
	best, bestCount := -1, 1<<30
	for i := lo; i < hi; i++ {
		ob := s.pending[i]
		if s.implied(ob.node, ob.val, ob.strict) {
			continue
		}
		n := s.feasibleCubes(ob)
		if n == 0 {
			return false
		}
		s.pending = append(s.pending, ob)
		if n < bestCount {
			best, bestCount = len(s.pending)-1, n
		}
	}
	if best < 0 {
		return true
	}
	ob := s.pending[best]
	copy(s.pending[best:], s.pending[best+1:])
	s.pending = s.pending[:len(s.pending)-1]
	d := s.graph.driver[ob.node]
	c0, c1 := s.graph.cubes(d, ob.val)
	for cb := c0; cb < c1; cb++ {
		// The store is restored after every branch, so the cubes found
		// feasible by the scan are exactly the ones that pass here.
		if !s.cubeFeasible(ob, d, cb) {
			continue
		}
		if *budget <= 0 {
			return false
		}
		f := s.save()
		if s.applyCube(d, cb, ob.strict) && s.justifyFirst(hi, budget) {
			return true
		}
		s.restore(f)
		*budget--
		s.backtracks++
	}
	return false
}

// feasibleCubes counts the driver's cubes of an obligation whose every
// literal is compatible with the current constraint store.
func (s *searcher) feasibleCubes(ob obligation) int {
	n := 0
	d := s.graph.driver[ob.node]
	lo, hi := s.graph.cubes(d, ob.val)
	for cb := lo; cb < hi; cb++ {
		if s.cubeFeasible(ob, d, cb) {
			n++
		}
	}
	return n
}

// cubeFeasible reports whether every literal of cube cb, one cube of
// the obligation's driver d, is compatible with the current constraint
// store.
func (s *searcher) cubeFeasible(ob obligation, d, cb int32) bool {
	fanin := &s.graph.gates[d].fanin
	for _, l := range s.graph.cubeLits(cb) {
		v := s.values[fanin[l.slot]]
		want := required(l.val, ob.strict)
		if s.aliveR && !logic.Compatible(v.Rise, want) {
			return false
		}
		if s.aliveF && !logic.Compatible(v.Fall, want) {
			return false
		}
	}
	return true
}
