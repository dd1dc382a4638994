// Package liberty writes the characterized library in the Liberty (.lib)
// standard-cell interchange format — the format real STA tools consume.
// The export covers the NLDM view of the library: per-pin capacitances,
// functions, and the delay/transition tables of the default
// sensitization vector. It is deliberately the *vector-blind* view: the
// per-vector polynomial models of the paper's tool have no Liberty
// representation, which is precisely the gap the paper identifies in
// commercial flows (a comment in the emitted file says so). The tests
// read the output back with a parser for the subset the writer emits.
package liberty

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/expr"
	"tpsta/internal/lut"
)

// Write emits lib as a Liberty library named "tpsta_<tech>". Times are
// picoseconds, capacitances femtofarads.
func Write(w io.Writer, lib *charlib.Library, cells *cell.Lib) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "/* exported by tpsta; NLDM view only — per-vector polynomial\n")
	fmt.Fprintf(bw, "   models (the paper's contribution) have no Liberty equivalent. */\n")
	fmt.Fprintf(bw, "library (tpsta_%s) {\n", sanitize(lib.TechName))
	fmt.Fprintf(bw, "  time_unit : \"1ps\";\n")
	fmt.Fprintf(bw, "  capacitive_load_unit (1, ff);\n")
	fmt.Fprintf(bw, "  delay_model : table_lookup;\n")

	names := make([]string, 0, len(lib.CinRef))
	for n := range lib.CinRef {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cellName := range names {
		c, err := cells.Get(cellName)
		if err != nil {
			return err
		}
		if err := writeCell(bw, lib, c); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

func writeCell(bw *bufio.Writer, lib *charlib.Library, c *cell.Cell) error {
	fmt.Fprintf(bw, "  cell (%s) {\n", c.Name)
	for _, pin := range c.Inputs {
		cap, err := lib.InputCap(c.Name, pin)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "    pin (%s) {\n", pin)
		fmt.Fprintf(bw, "      direction : input;\n")
		fmt.Fprintf(bw, "      capacitance : %.6f;\n", cap*1e15)
		fmt.Fprintf(bw, "    }\n")
	}
	fmt.Fprintf(bw, "    pin (%s) {\n", cell.Output)
	fmt.Fprintf(bw, "      direction : output;\n")
	fmt.Fprintf(bw, "      function : \"%s\";\n", libertyFunction(c.Function))
	for _, pin := range c.Inputs {
		if err := writeTiming(bw, lib, c, pin); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "    }\n")
	fmt.Fprintf(bw, "  }\n")
	return nil
}

// timingSense classifies the output's monotonicity in pin.
func timingSense(c *cell.Cell, pin string) string {
	vars := c.Inputs
	idx := -1
	for i, p := range vars {
		if p == pin {
			idx = i
		}
	}
	tt := expr.TruthTable(c.Function, vars)
	pos, neg := true, true
	for r := range tt {
		if r>>idx&1 == 1 {
			continue
		}
		lo, hi := tt[r], tt[r|1<<idx]
		if lo && !hi {
			pos = false
		}
		if !lo && hi {
			neg = false
		}
	}
	switch {
	case pos && !neg:
		return "positive_unate"
	case neg && !pos:
		return "negative_unate"
	default:
		return "non_unate"
	}
}

func writeTiming(bw *bufio.Writer, lib *charlib.Library, c *cell.Cell, pin string) error {
	vecs := c.Vectors(pin)
	if len(vecs) == 0 {
		return nil // untestable pin: no timing arc
	}
	fmt.Fprintf(bw, "      timing () {\n")
	fmt.Fprintf(bw, "        related_pin : \"%s\";\n", pin)
	fmt.Fprintf(bw, "        timing_sense : %s;\n", timingSense(c, pin))
	// Output-rise tables come from whichever input edge yields a rising
	// output under the default vector (and symmetrically for fall).
	for _, outRising := range []bool{true, false} {
		inRising, ok := inputEdgeFor(c, vecs[0], outRising)
		if !ok {
			continue
		}
		arc, ok := lutArc(lib, c.Name, pin, inRising)
		if !ok {
			continue
		}
		kind, tkind := "cell_rise", "rise_transition"
		if !outRising {
			kind, tkind = "cell_fall", "fall_transition"
		}
		writeTable(bw, kind, arc.Delay)
		writeTable(bw, tkind, arc.Slew)
	}
	fmt.Fprintf(bw, "      }\n")
	return nil
}

// inputEdgeFor finds the input edge producing the wanted output edge.
func inputEdgeFor(c *cell.Cell, vec cell.Vector, outRising bool) (bool, bool) {
	for _, inRising := range []bool{true, false} {
		if got, ok := c.OutputEdge(vec, inRising); ok && got == outRising {
			return inRising, true
		}
	}
	return false, false
}

func lutArc(lib *charlib.Library, cellName, pin string, rising bool) (*lut.Arc, bool) {
	arc, ok := lib.LUT[charlib.LUTKey(cellName, pin, rising)]
	return arc, ok
}

func writeTable(bw *bufio.Writer, kind string, t *lut.Table) {
	fmt.Fprintf(bw, "        %s (tpsta_template) {\n", kind)
	fmt.Fprintf(bw, "          index_1 (\"%s\");\n", joinScaled(t.Slews, 1e12))
	fmt.Fprintf(bw, "          index_2 (\"%s\");\n", joinScaled(t.Loads, 1e15))
	// values: one row per index_1 (slew), columns over index_2 (load);
	// the internal body is [load][slew], so transpose on the way out.
	rows := make([]string, len(t.Slews))
	for j := range t.Slews {
		cols := make([]string, len(t.Loads))
		for i := range t.Loads {
			cols[i] = fmt.Sprintf("%.4f", t.Values[i][j]*1e12)
		}
		rows[j] = strings.Join(cols, ", ")
	}
	fmt.Fprintf(bw, "          values (\"%s\");\n", strings.Join(rows, "\", \""))
	fmt.Fprintf(bw, "        }\n")
}

func joinScaled(xs []float64, scale float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x*scale)
	}
	return strings.Join(parts, ", ")
}

// libertyFunction renders the cell function in Liberty boolean syntax.
func libertyFunction(e expr.Node) string {
	switch n := e.(type) {
	case expr.Var:
		return n.Name
	case expr.Const:
		if n.Val {
			return "1"
		}
		return "0"
	case expr.Not:
		return "!" + libertyFunction(n.X)
	case expr.And:
		parts := make([]string, len(n.Xs))
		for i, x := range n.Xs {
			parts[i] = maybeParen(x)
		}
		return strings.Join(parts, "*")
	case expr.Or:
		parts := make([]string, len(n.Xs))
		for i, x := range n.Xs {
			parts[i] = maybeParen(x)
		}
		return strings.Join(parts, "+")
	case expr.Xor:
		return maybeParen(n.A) + "^" + maybeParen(n.B)
	default:
		return "?"
	}
}

func maybeParen(e expr.Node) string {
	switch e.(type) {
	case expr.Var, expr.Const, expr.Not:
		return libertyFunction(e)
	default:
		return "(" + libertyFunction(e) + ")"
	}
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		ok := r == '_' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			out[i] = '_'
		}
	}
	return string(out)
}
