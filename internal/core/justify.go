package core

import (
	"tpsta/internal/cell"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// The justification engine: side-value assertion with single-cube
// backward implication during traversal (assertVector/assignSide), and
// the end-of-path obligation search over the prime implicants of each
// driving cell (justifyFirst).

// cube aliases the shared justification machinery of the cell package;
// see cell.JustifyCubes.
type cube = cell.Cube

// justifyChoices returns the alternative supporting cubes for a required
// cell output value.
func justifyChoices(c *cell.Cell, val bool) []cube {
	return cell.JustifyCubes(c, val)
}

// obligation is a side value awaiting justification through its driver.
// strict obligations demand a steady value (both ends of the trajectory);
// non-strict ones only the final level (floating-mode sensitization).
type obligation struct {
	node   *netlist.Node
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

// assertVector asserts the side values of one sensitization vector and
// forward-propagates them — the decision application withVector charges
// a step for. The paper applies steady values to the inputs of complex
// gates (the vector-dependent delay was characterized that way); simple
// gates need only the non-controlling final level (floating mode).
// Robust mode demands steadiness everywhere.
func (s *searcher) assertVector(g *netlist.Gate, vec cell.Vector) bool {
	strict := s.eng.Opts.Robust || len(g.Cell.Vectors(vec.Pin)) > 1
	for i, nid := range s.gateFanins[g.ID] {
		pin := g.Cell.Inputs[i]
		if pin == vec.Pin {
			continue
		}
		if !s.assignSide(nid, vec.Side[pin], strict) {
			return false
		}
	}
	return true
}

// implied reports whether node's required value already follows from its
// driver's current input values in every alive scenario (or the node is
// a primary input).
func (s *searcher) implied(n *netlist.Node, val, strict bool) bool {
	if n.IsInput {
		return true
	}
	want := required(val, strict)
	out := s.evalGate(n.Driver)
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
func (s *searcher) assignSide(nid int, val, strict bool) bool {
	req := required(val, strict)
	if !s.assign(nid, logic.Dual{Rise: req, Fall: req}) {
		return false
	}
	n := s.c.Nodes[nid]
	if s.implied(n, val, strict) {
		return true
	}
	if cubes := justifyChoices(n.Driver.Cell, val); len(cubes) == 1 {
		return s.applyCube(n.Driver, cubes[0], strict)
	}
	s.pending = append(s.pending, obligation{n, val, strict})
	return true
}

// applyCube asserts every literal of cb on the inputs of gate g.
func (s *searcher) applyCube(g *netlist.Gate, cb cube, strict bool) bool {
	ids := s.gateFanins[g.ID]
	for _, l := range cb {
		if !s.assignSide(ids[l.Index], l.Val, strict) {
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
	for _, cb := range justifyChoices(ob.node.Driver.Cell, ob.val) {
		// The store is restored after every branch, so the cubes found
		// feasible by the scan are exactly the ones that pass here.
		if !s.cubeFeasible(ob, cb) {
			continue
		}
		if *budget <= 0 {
			return false
		}
		f := s.save()
		if s.applyCube(ob.node.Driver, cb, ob.strict) && s.justifyFirst(hi, budget) {
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
	for _, cb := range justifyChoices(ob.node.Driver.Cell, ob.val) {
		if s.cubeFeasible(ob, cb) {
			n++
		}
	}
	return n
}

// cubeFeasible reports whether every literal of cb, one cube of the
// obligation's driver, is compatible with the current constraint store.
func (s *searcher) cubeFeasible(ob obligation, cb cube) bool {
	ids := s.gateFanins[ob.node.Driver.ID]
	for _, l := range cb {
		v := s.values[ids[l.Index]]
		want := required(l.Val, ob.strict)
		if s.aliveR && !logic.Compatible(v.Rise, want) {
			return false
		}
		if s.aliveF && !logic.Compatible(v.Fall, want) {
			return false
		}
	}
	return true
}
