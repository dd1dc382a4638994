package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/circuits"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// The search graph's differential oracle: forward implication as it
// ran over the netlist before the graph existed — Gate.Fanin looked up
// by pin name, each cell evaluated with cell.Fold and Cell.Table, and
// Intersect by its end-wise formula — driven through the same random
// assign/save/restore sequences as the searcher.

// formulaIntersect is logic.Intersect by its definition: two
// trajectories meet end by end, an X end is a wildcard and two definite
// ends must agree.
func formulaIntersect(a, b logic.Value) (logic.Value, bool) {
	meet := func(x, y logic.Trit) (logic.Trit, bool) {
		if x == logic.TX {
			return y, true
		}
		if y == logic.TX || x == y {
			return x, true
		}
		return logic.TX, false
	}
	i, okI := meet(a.Initial(), b.Initial())
	f, okF := meet(a.Final(), b.Final())
	if !okI || !okF {
		return logic.VX, false
	}
	return logic.FromTrits(i, f), true
}

// pointerEval is the oracle's constraint store: one dual value per net,
// the undo trail, the alive launch scenarios and the conflict count.
type pointerEval struct {
	c              *netlist.Circuit
	values         []logic.Dual
	trail          []trailEntry
	aliveR, aliveF bool
	conflicts      int64
}

func newPointerEval(c *netlist.Circuit) *pointerEval {
	p := &pointerEval{c: c, values: make([]logic.Dual, len(c.Nodes)), aliveR: true, aliveF: true}
	for i := range p.values {
		p.values[i] = logic.DualX
	}
	return p
}

// evalGate folds the fanin Values of g, looked up by pin name, into one
// row of the cell's table per scenario.
func (p *pointerEval) evalGate(g *netlist.Gate) logic.Dual {
	rise, fall := 0, 0
	for _, pin := range g.Cell.Inputs {
		d := p.values[g.Fanin[pin].ID]
		rise = cell.Fold(rise, d.Rise)
		fall = cell.Fold(fall, d.Fall)
	}
	return logic.Dual{Rise: g.Cell.Table()[rise], Fall: g.Cell.Table()[fall]}
}

// assign is the searcher's assign over the netlist: a FIFO worklist
// that intersects each implication into its net and re-evaluates the
// net's fanout gates, in Node.Fanout order, whenever the net changes.
func (p *pointerEval) assign(nid int, val logic.Dual) bool {
	type work struct {
		nid int
		val logic.Dual
	}
	q := []work{{nid, val}}
	for head := 0; head < len(q); head++ {
		w := q[head]
		cur := p.values[w.nid]
		next := cur
		if p.aliveR {
			if nv, ok := formulaIntersect(cur.Rise, w.val.Rise); !ok {
				p.aliveR = false
				p.conflicts++
			} else {
				next.Rise = nv
			}
		}
		if p.aliveF {
			if nv, ok := formulaIntersect(cur.Fall, w.val.Fall); !ok {
				p.aliveF = false
				p.conflicts++
			} else {
				next.Fall = nv
			}
		}
		if !p.aliveR && !p.aliveF {
			return false
		}
		if next == cur {
			continue
		}
		p.trail = append(p.trail, trailEntry{int32(w.nid), cur})
		p.values[w.nid] = next
		for _, ref := range p.c.Nodes[w.nid].Fanout {
			q = append(q, work{ref.Gate.Out.ID, p.evalGate(ref.Gate)})
		}
	}
	return true
}

func (p *pointerEval) save() frame {
	return frame{trailLen: len(p.trail), aliveR: p.aliveR, aliveF: p.aliveF}
}

func (p *pointerEval) restore(f frame) {
	for i := len(p.trail) - 1; i >= f.trailLen; i-- {
		p.values[p.trail[i].nid] = p.trail[i].old
	}
	p.trail = p.trail[:f.trailLen]
	p.aliveR, p.aliveF = f.aliveR, f.aliveF
}

// oracleCircuits are the oracle's subjects: the paper's Fig. 4 example,
// ISCAS c17 and c432, the two-pin circuit and two generated circuits.
func oracleCircuits(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{"twopin": twoPinCircuit(t)}
	for _, name := range []string{"fig4", "c17", "c432"} {
		c, err := circuits.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	out["gen-a"] = genCircuit(t, circuits.Profile{Name: "gena", Inputs: 8, Outputs: 4, Gates: 40, Depth: 6, Seed: 3})
	out["gen-b"] = genCircuit(t, circuits.Profile{Name: "genb", Inputs: 12, Outputs: 6, Gates: 90, Depth: 9, Seed: 11})
	return out
}

// TestSearchGraphMatchesPointerEvaluator drives random assign, save and
// restore sequences through the searcher, on the search graph, and
// through the pointer evaluator, and after every call requires the same
// values on every net, the same trail length, alive flags and conflict
// count, and the same evaluation of every gate.
func TestSearchGraphMatchesPointerEvaluator(t *testing.T) {
	for name, c := range oracleCircuits(t) {
		s := poolSearcher(New(c, nil, nil, Options{Workers: 1}))
		ref := newPointerEval(c)
		rng := rand.New(rand.NewSource(int64(len(c.Nodes))))
		s.aliveR, s.aliveF = true, true
		var frames []frame
		var refFrames []frame
		calls := 0
		check := func(op string) {
			t.Helper()
			calls++
			where := fmt.Sprintf("%s call %d (%s)", name, calls, op)
			if len(s.trail) != len(ref.trail) || s.aliveR != ref.aliveR || s.aliveF != ref.aliveF ||
				s.conflicts != ref.conflicts {
				t.Fatalf("%s: trail %d, alive %v/%v, conflicts %d; oracle trail %d, alive %v/%v, conflicts %d",
					where, len(s.trail), s.aliveR, s.aliveF, s.conflicts,
					len(ref.trail), ref.aliveR, ref.aliveF, ref.conflicts)
			}
			for _, n := range c.Nodes {
				if s.values[n.ID] != ref.values[n.ID] {
					t.Fatalf("%s: net %s holds %s, oracle %s", where, n.Name, s.values[n.ID], ref.values[n.ID])
				}
			}
			for _, g := range c.Gates {
				if got, want := s.evalGate(&s.graph.gates[g.ID]), ref.evalGate(g); got != want {
					t.Fatalf("%s: gate %s evaluates to %s, oracle %s", where, g.Name, got, want)
				}
			}
		}
		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 2 || len(frames) == 0:
				frames, refFrames = append(frames, s.save()), append(refFrames, ref.save())
				check("save")
			case r < 4:
				n := len(frames) - 1
				s.restore(frames[n])
				ref.restore(refFrames[n])
				frames, refFrames = frames[:n], refFrames[:n]
				check("restore")
			default:
				nid := rng.Intn(len(c.Nodes))
				val := logic.Dual{Rise: logic.Value(rng.Intn(logic.NumValues)), Fall: logic.Value(rng.Intn(logic.NumValues))}
				got, want := s.assign(int32(nid), val), ref.assign(nid, val)
				if got != want {
					t.Fatalf("%s: assign(%s, %s) = %v, oracle %v", name, c.Nodes[nid].Name, val, got, want)
				}
				check("assign " + c.Nodes[nid].Name + " " + val.String())
				if !got {
					// A failed assignment is undone, as the search does.
					n := len(frames) - 1
					s.restore(frames[n])
					ref.restore(refFrames[n])
					check("restore after conflict")
				}
			}
		}
	}
}
