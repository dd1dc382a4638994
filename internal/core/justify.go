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

// lit and cube alias the shared justification machinery of the cell
// package; see cell.JustifyCubes.
type lit = cell.Lit

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
	for _, pin := range g.Cell.Inputs {
		if pin == vec.Pin {
			continue
		}
		if !s.assignSide(g.Fanin[pin], vec.Side[pin], strict, &s.pending) {
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

// assignSide asserts a side value on a node — steady when strict (the
// paper applies only steady values to complex-gate inputs), final-level
// otherwise (floating mode, the semi-undetermined X0/X1 states). A value
// whose driver has exactly one supporting cube is not a decision at all:
// the cube is applied immediately (backward implication), cascading
// toward the inputs. Only genuinely ambiguous values are queued as
// justification obligations.
func (s *searcher) assignSide(n *netlist.Node, val, strict bool, pending *[]obligation) bool {
	req := required(val, strict)
	if !s.assign(n.ID, logic.Dual{Rise: req, Fall: req}) {
		return false
	}
	if s.implied(n, val, strict) {
		return true
	}
	if cubes := justifyChoices(n.Driver.Cell, val); len(cubes) == 1 {
		for _, l := range cubes[0] {
			if !s.assignSide(n.Driver.Fanin[l.Pin], l.Val, strict, pending) {
				return false
			}
		}
		return true
	}
	*pending = append(*pending, obligation{n, val, strict})
	return true
}

// justifyFirst resolves the pending obligations with the first consistent
// combination of justification cubes (backtracking over the prime
// implicants of each driving cell). On success the assignments are left
// applied and true is returned; on failure the state is restored.
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
func (s *searcher) justifyFirst(pending []obligation, budget *int) bool {
	// Most-constrained-first: scan the open obligations, dropping the
	// implied ones, and branch on the one with the fewest feasible cubes
	// (a zero-choice obligation fails immediately, a one-choice
	// obligation is an implication).
	var open []obligation
	best := -1
	bestCount := 1 << 30
	var bestCubes []cube
	for _, ob := range pending {
		if s.implied(ob.node, ob.val, ob.strict) {
			continue
		}
		feas := s.feasibleCubes(ob)
		if len(feas) == 0 {
			return false
		}
		open = append(open, ob)
		if len(feas) < bestCount {
			best, bestCount, bestCubes = len(open)-1, len(feas), feas
		}
	}
	if len(open) == 0 {
		return true
	}
	ob := open[best]
	rest := append(append([]obligation(nil), open[:best]...), open[best+1:]...)
	for _, cb := range bestCubes {
		if *budget <= 0 {
			return false
		}
		f := s.save()
		next := append([]obligation(nil), rest...)
		ok := true
		for _, l := range cb {
			child := ob.node.Driver.Fanin[l.Pin]
			if !s.assignSide(child, l.Val, ob.strict, &next) {
				ok = false
				break
			}
		}
		if ok && s.justifyFirst(next, budget) {
			return true
		}
		s.restore(f)
		*budget--
		s.backtracks++
	}
	return false
}

// feasibleCubes filters the driver's cubes of an obligation down to those
// whose every literal is compatible with the current constraint store.
func (s *searcher) feasibleCubes(ob obligation) []cube {
	all := justifyChoices(ob.node.Driver.Cell, ob.val)
	out := make([]cube, 0, len(all))
	for _, cb := range all {
		feasible := true
		for _, l := range cb {
			v := s.values[ob.node.Driver.Fanin[l.Pin].ID]
			want := required(l.Val, ob.strict)
			if s.aliveR && !logic.Compatible(v.Rise, want) {
				feasible = false
				break
			}
			if s.aliveF && !logic.Compatible(v.Fall, want) {
				feasible = false
				break
			}
		}
		if feasible {
			out = append(out, cb)
		}
	}
	return out
}
