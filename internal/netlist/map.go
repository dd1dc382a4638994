package netlist

import (
	"fmt"

	"tpsta/internal/cell"
)

// MapStats counts the pattern rewrites the technology mapper applied.
type MapStats struct {
	// Rewrites maps complex-cell name to the number of instances created.
	Rewrites map[string]int
	// GatesBefore and GatesAfter record the instance counts around the
	// mapping.
	GatesBefore, GatesAfter int
	// Passes is the number of rewrite passes until fixpoint.
	Passes int
}

// TechMap covers primitive AND/OR/NAND/NOR/XOR trees of the circuit into
// the library's complex cells (AO22, AO21, OA12, OA22, AOI21/22,
// OAI12/22, XOR3), exactly the structural transformation a synthesis tool
// performs when it maps onto a standard-cell library — and the reason the
// paper's ISCAS circuits contain complex gates at all. The input circuit
// is not modified; a freshly built circuit is returned.
//
// A fanin gate is absorbed into a pattern only when its output net has a
// single fanout and is not a primary output, so the rewrite preserves the
// circuit's observable logic exactly.
func TechMap(c *Circuit, lib *cell.Lib) (*Circuit, MapStats, error) {
	stats := MapStats{Rewrites: map[string]int{}, GatesBefore: len(c.Gates)}
	cur := c
	for {
		next, changed, err := mapPass(cur, lib, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.Passes++
		cur = next
		if !changed {
			break
		}
		if stats.Passes > 50 {
			return nil, stats, fmt.Errorf("netlist: tech map did not converge on %s", c.Name)
		}
	}
	stats.GatesAfter = len(cur.Gates)
	return cur, stats, nil
}

// replacement is a pending rewrite: the root gate is re-instantiated as
// cellName with the given pin→net wiring; absorbed fanin gates disappear.
type replacement struct {
	cellName string
	pins     map[string]string // pin → source net name
}

// absorbable reports whether gate d can be fused into its single consumer.
func absorbable(d *Gate) bool {
	return d != nil && len(d.Out.Fanout) == 1 && !d.Out.IsOutput
}

// driverOf returns the gate driving pin of g, or nil for primary inputs.
func driverOf(g *Gate, pin string) *Gate {
	return g.Fanin[pin].Driver
}

// matchRoot tries every rewrite rule on root gate g. It returns the
// replacement and the list of absorbed gates, or nil if nothing matches.
func matchRoot(g *Gate, absorbed map[int]bool) (*replacement, []*Gate) {
	ok := func(d *Gate, cellName string) bool {
		if d == nil || absorbed[d.ID] || d.Cell.Name != cellName || !absorbable(d) {
			return false
		}
		// Lookahead: leave d alone when it would itself anchor a larger
		// cover (e.g. an OR2 over two ANDs becomes AO22, which beats being
		// swallowed into an OAI12). This mirrors the area preference of a
		// real technology mapper.
		if rep, eaten := matchRoot(d, absorbed); rep != nil && len(eaten) >= 2 {
			return false
		}
		return true
	}
	in := func(d *Gate, pin string) string { return d.Fanin[pin].Name }

	switch g.Cell.Name {
	case "OR2", "NOR2":
		a, b := driverOf(g, "A"), driverOf(g, "B")
		aAnd, bAnd := ok(a, "AND2"), ok(b, "AND2")
		inverted := g.Cell.Name == "NOR2"
		switch {
		case aAnd && bAnd && a != b:
			name := "AO22"
			if inverted {
				name = "AOI22"
			}
			return &replacement{name, map[string]string{
				"A": in(a, "A"), "B": in(a, "B"), "C": in(b, "A"), "D": in(b, "B"),
			}}, []*Gate{a, b}
		case aAnd:
			name := "AO21"
			if inverted {
				name = "AOI21"
			}
			return &replacement{name, map[string]string{
				"A": in(a, "A"), "B": in(a, "B"), "C": g.Fanin["B"].Name,
			}}, []*Gate{a}
		case bAnd:
			name := "AO21"
			if inverted {
				name = "AOI21"
			}
			return &replacement{name, map[string]string{
				"A": in(b, "A"), "B": in(b, "B"), "C": g.Fanin["A"].Name,
			}}, []*Gate{b}
		}
	case "AND2", "NAND2":
		a, b := driverOf(g, "A"), driverOf(g, "B")
		aOr, bOr := ok(a, "OR2"), ok(b, "OR2")
		inverted := g.Cell.Name == "NAND2"
		switch {
		case aOr && bOr && a != b:
			name := "OA22"
			if inverted {
				name = "OAI22"
			}
			return &replacement{name, map[string]string{
				"A": in(a, "A"), "B": in(a, "B"), "C": in(b, "A"), "D": in(b, "B"),
			}}, []*Gate{a, b}
		case aOr:
			name := "OA12"
			if inverted {
				name = "OAI12"
			}
			return &replacement{name, map[string]string{
				"A": in(a, "A"), "B": in(a, "B"), "C": g.Fanin["B"].Name,
			}}, []*Gate{a}
		case bOr:
			name := "OA12"
			if inverted {
				name = "OAI12"
			}
			return &replacement{name, map[string]string{
				"A": in(b, "A"), "B": in(b, "B"), "C": g.Fanin["A"].Name,
			}}, []*Gate{b}
		}
	case "XOR2":
		a, b := driverOf(g, "A"), driverOf(g, "B")
		if ok(a, "XOR2") {
			return &replacement{"XOR3", map[string]string{
				"A": in(a, "A"), "B": in(a, "B"), "C": g.Fanin["B"].Name,
			}}, []*Gate{a}
		}
		if ok(b, "XOR2") {
			return &replacement{"XOR3", map[string]string{
				"A": in(b, "A"), "B": in(b, "B"), "C": g.Fanin["A"].Name,
			}}, []*Gate{b}
		}
	}
	return nil, nil
}

// mapPass performs one reverse-topological matching sweep and rebuilds
// the circuit with the accepted rewrites applied.
func mapPass(c *Circuit, lib *cell.Lib, stats *MapStats) (*Circuit, bool, error) {
	topo, err := c.TopoGates()
	if err != nil {
		return nil, false, err
	}
	absorbed := map[int]bool{}
	replaced := map[int]*replacement{}
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		if absorbed[g.ID] {
			continue
		}
		rep, eaten := matchRoot(g, absorbed)
		if rep == nil {
			continue
		}
		replaced[g.ID] = rep
		for _, d := range eaten {
			absorbed[d.ID] = true
		}
		stats.Rewrites[rep.cellName]++
	}
	if len(replaced) == 0 {
		return c, false, nil
	}

	out := New(c.Name)
	for _, n := range c.Inputs {
		if _, err := out.AddInput(n.Name); err != nil {
			return nil, false, err
		}
	}
	for _, g := range topo {
		if absorbed[g.ID] {
			continue
		}
		if rep, ok := replaced[g.ID]; ok {
			if _, err := out.AddGate(lib, rep.cellName, g.Out.Name, rep.pins); err != nil {
				return nil, false, err
			}
			continue
		}
		pins := map[string]string{}
		for _, pin := range g.Cell.Inputs {
			pins[pin] = g.Fanin[pin].Name
		}
		if _, err := out.AddGate(lib, g.Cell.Name, g.Out.Name, pins); err != nil {
			return nil, false, err
		}
	}
	for _, n := range c.Outputs {
		out.MarkOutput(n.Name)
	}
	if err := out.Check(); err != nil {
		return nil, false, err
	}
	return out, true, nil
}
