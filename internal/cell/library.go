package cell

import (
	"fmt"
	"sort"
	"sync"

	"tpsta/internal/expr"
)

// Lib is a standard-cell library: a named set of cells.
type Lib struct {
	cells map[string]*Cell
	names []string
}

var (
	defaultLib  *Lib
	defaultOnce sync.Once
)

// Default returns the built-in library shared by the whole program. It
// contains the primitive cells (INV, BUF, NAND/NOR/AND/OR 2–4, XOR2,
// XNOR2) and the complex cells the paper studies (AO21, AO22, OA12, OA22,
// AOI21, AOI22, OAI12, OAI22, MAJ3, MAJ3I, MUX2, XOR3). Construction
// verifies every cell's stage chain against its declared function.
func Default() *Lib {
	defaultOnce.Do(func() {
		defaultLib = build()
	})
	return defaultLib
}

// Get returns the named cell or an error.
func (l *Lib) Get(name string) (*Cell, error) {
	c, ok := l.cells[name]
	if !ok {
		return nil, fmt.Errorf("cell: unknown cell %q", name)
	}
	return c, nil
}

// MustGet returns the named cell, panicking if it does not exist. Use for
// library-constant lookups.
func (l *Lib) MustGet(name string) *Cell {
	c, err := l.Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Names returns the cell names in sorted order.
func (l *Lib) Names() []string { return append([]string(nil), l.names...) }

// Cells returns all cells in name order.
func (l *Lib) Cells() []*Cell {
	out := make([]*Cell, len(l.names))
	for i, n := range l.names {
		out[i] = l.cells[n]
	}
	return out
}

// ComplexCells returns the cells with at least one multi-vector input.
func (l *Lib) ComplexCells() []*Cell {
	var out []*Cell
	for _, c := range l.Cells() {
		if c.IsComplex() {
			out = append(out, c)
		}
	}
	return out
}

var (
	a = expr.V("A")
	b = expr.V("B")
	c = expr.V("C")
	d = expr.V("D")
	s = expr.V("S")
)

// inv builds an inverter stage from net in to net out.
func inv(in, out string) Stage { return Stage{PD: expr.V(in), Out: out} }

// core builds a stage with the given pull-down expression driving out.
func core(pd expr.Node, out string) Stage { return Stage{PD: pd, Out: out} }

// single wraps one inverting stage driving Z directly.
func single(pd expr.Node) []Stage { return []Stage{core(pd, Output)} }

// buffered wraps a core stage plus an output inverter — the structure of
// all non-inverting cells (Section III of the paper: "the two complex
// gates considered implement non-inverting functions, and require an
// output inverter").
func buffered(pd expr.Node) []Stage {
	return []Stage{core(pd, "n1"), inv("n1", Output)}
}

func build() *Lib {
	mk := func(name string, inputs []string, fn expr.Node, stages []Stage) *Cell {
		sized := make([]Stage, len(stages))
		for i, st := range stages {
			sized[i] = sizeStage(st)
		}
		c := &Cell{Name: name, Inputs: inputs, Function: fn, Stages: sized, table: tabulate(fn, inputs)}
		if err := c.checkStages(); err != nil {
			panic(err)
		}
		// Precompute the lazily-cached derivations eagerly so library
		// cells are safe for concurrent use (characterization workers,
		// parallel searches).
		c.Topology()
		for _, pin := range c.Inputs {
			c.Vectors(pin)
		}
		JustifyCubes(c, false)
		JustifyCubes(c, true)
		return c
	}
	ab := []string{"A", "B"}
	abc := []string{"A", "B", "C"}
	abcd := []string{"A", "B", "C", "D"}

	cells := []*Cell{
		mk("INV", []string{"A"}, expr.NotOf(a), single(a)),
		mk("BUF", []string{"A"}, a, []Stage{inv("A", "n1"), inv("n1", Output)}),

		mk("NAND2", ab, expr.NotOf(expr.AndOf(a, b)), single(expr.AndOf(a, b))),
		mk("NAND3", abc, expr.NotOf(expr.AndOf(a, b, c)), single(expr.AndOf(a, b, c))),
		mk("NAND4", abcd, expr.NotOf(expr.AndOf(a, b, c, d)), single(expr.AndOf(a, b, c, d))),
		mk("NOR2", ab, expr.NotOf(expr.OrOf(a, b)), single(expr.OrOf(a, b))),
		mk("NOR3", abc, expr.NotOf(expr.OrOf(a, b, c)), single(expr.OrOf(a, b, c))),
		mk("NOR4", abcd, expr.NotOf(expr.OrOf(a, b, c, d)), single(expr.OrOf(a, b, c, d))),

		mk("AND2", ab, expr.AndOf(a, b), buffered(expr.AndOf(a, b))),
		mk("AND3", abc, expr.AndOf(a, b, c), buffered(expr.AndOf(a, b, c))),
		mk("AND4", abcd, expr.AndOf(a, b, c, d), buffered(expr.AndOf(a, b, c, d))),
		mk("OR2", ab, expr.OrOf(a, b), buffered(expr.OrOf(a, b))),
		mk("OR3", abc, expr.OrOf(a, b, c), buffered(expr.OrOf(a, b, c))),
		mk("OR4", abcd, expr.OrOf(a, b, c, d), buffered(expr.OrOf(a, b, c, d))),

		// The paper's two running examples (Section II).
		// AO22: Z = A*B + C*D (called AO2N in some technologies).
		mk("AO22", abcd,
			expr.OrOf(expr.AndOf(a, b), expr.AndOf(c, d)),
			buffered(expr.OrOf(expr.AndOf(a, b), expr.AndOf(c, d)))),
		// OA12: Z = (A+B)*C (called AO7N in some technologies).
		mk("OA12", abc,
			expr.AndOf(expr.OrOf(a, b), c),
			buffered(expr.AndOf(expr.OrOf(a, b), c))),

		mk("AO21", abc,
			expr.OrOf(expr.AndOf(a, b), c),
			buffered(expr.OrOf(expr.AndOf(a, b), c))),
		mk("OA22", abcd,
			expr.AndOf(expr.OrOf(a, b), expr.OrOf(c, d)),
			buffered(expr.AndOf(expr.OrOf(a, b), expr.OrOf(c, d)))),

		mk("AOI21", abc,
			expr.NotOf(expr.OrOf(expr.AndOf(a, b), c)),
			single(expr.OrOf(expr.AndOf(a, b), c))),
		mk("AOI22", abcd,
			expr.NotOf(expr.OrOf(expr.AndOf(a, b), expr.AndOf(c, d))),
			single(expr.OrOf(expr.AndOf(a, b), expr.AndOf(c, d)))),
		mk("OAI12", abc,
			expr.NotOf(expr.AndOf(expr.OrOf(a, b), c)),
			single(expr.AndOf(expr.OrOf(a, b), c))),
		mk("OAI22", abcd,
			expr.NotOf(expr.AndOf(expr.OrOf(a, b), expr.OrOf(c, d))),
			single(expr.AndOf(expr.OrOf(a, b), expr.OrOf(c, d)))),

		// Majority (full-adder carry) — a genuine unate complex gate.
		mk("MAJ3", abc,
			expr.OrOf(expr.AndOf(a, b), expr.AndOf(b, c), expr.AndOf(c, a)),
			buffered(expr.OrOf(expr.AndOf(a, b), expr.AndOf(b, c), expr.AndOf(c, a)))),
		mk("MAJ3I", abc,
			expr.NotOf(expr.OrOf(expr.AndOf(a, b), expr.AndOf(b, c), expr.AndOf(c, a))),
			single(expr.OrOf(expr.AndOf(a, b), expr.AndOf(b, c), expr.AndOf(c, a)))),

		// XOR2 = !(A*B + !A*!B): two input inverters plus an AOI core.
		mk("XOR2", ab, expr.XorOf(a, b), []Stage{
			inv("A", "na"), inv("B", "nb"),
			core(expr.OrOf(expr.AndOf(a, b), expr.AndOf(expr.V("na"), expr.V("nb"))), Output),
		}),
		mk("XNOR2", ab, expr.NotOf(expr.XorOf(a, b)), []Stage{
			inv("A", "na"), inv("B", "nb"),
			core(expr.OrOf(expr.AndOf(a, expr.V("nb")), expr.AndOf(expr.V("na"), b)), Output),
		}),
		// XOR3 (full-adder sum): two cascaded XOR cores.
		mk("XOR3", abc, expr.XorOf(expr.XorOf(a, b), c), []Stage{
			inv("A", "na"), inv("B", "nb"),
			core(expr.OrOf(expr.AndOf(a, b), expr.AndOf(expr.V("na"), expr.V("nb"))), "t"),
			inv("t", "nt"), inv("C", "nc"),
			core(expr.OrOf(expr.AndOf(expr.V("t"), c), expr.AndOf(expr.V("nt"), expr.V("nc"))), Output),
		}),
		// MUX2: Z = !S*A + S*B.
		mk("MUX2", []string{"A", "B", "S"},
			expr.OrOf(expr.AndOf(expr.NotOf(s), a), expr.AndOf(s, b)),
			[]Stage{
				inv("S", "ns"),
				core(expr.OrOf(expr.AndOf(expr.V("ns"), a), expr.AndOf(s, b)), "ni"),
				inv("ni", Output),
			}),
	}

	lib := &Lib{cells: make(map[string]*Cell, len(cells))}
	for _, c := range cells {
		if _, dup := lib.cells[c.Name]; dup {
			panic("cell: duplicate cell " + c.Name)
		}
		lib.cells[c.Name] = c
		lib.names = append(lib.names, c.Name)
	}
	sort.Strings(lib.names)
	return lib
}
