package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tpsta/internal/cell"
)

// ParseBench reads an ISCAS-85 .bench netlist:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G22)
//	G10 = NAND(G1, G3)
//
// in the extended dialect WriteBench produces: a gate type is a library
// cell name, with the operands in the cell's pin order (complex gates
// round-trip as e.g. "n12 = AO22(a, b, c, d)"), or one of the classic
// types NOT, BUFF/BUF, AND, NAND, OR, NOR, XOR and XNOR. Classic gates
// wider than the library (more than four inputs; more than two for
// XOR/XNOR) are decomposed into balanced trees of library cells, with
// intermediate nets named <out>_t<i> — the topology changes slightly but
// the logic function is preserved, as a synthesis tool would do when
// mapping onto this library.
//
// INPUT and OUTPUT declarations take effect as they are read; the gates
// are added after the last line, in line order, so a gate may read an
// input declared below it. Every error names its line.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	c := New(name)
	lib := cell.Default()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	type pendingGate struct {
		out  string
		typ  string
		ins  []string
		line int
	}
	var pending []pendingGate
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(line), "INPUT(") && strings.HasSuffix(line, ")"):
			arg := line[len("INPUT(") : len(line)-1]
			if _, err := c.AddInput(strings.TrimSpace(arg)); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", name, lineNo, err)
			}
		case strings.HasPrefix(strings.ToUpper(line), "OUTPUT(") && strings.HasSuffix(line, ")"):
			arg := line[len("OUTPUT(") : len(line)-1]
			c.MarkOutput(strings.TrimSpace(arg))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("%s:%d: unrecognized line %q", name, lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			if open < 0 || !strings.HasSuffix(rhs, ")") {
				return nil, fmt.Errorf("%s:%d: malformed gate %q", name, lineNo, line)
			}
			typ := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			var ins []string
			for _, f := range strings.Split(rhs[open+1:len(rhs)-1], ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					return nil, fmt.Errorf("%s:%d: empty operand", name, lineNo)
				}
				ins = append(ins, f)
			}
			pending = append(pending, pendingGate{out, typ, ins, lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, p := range pending {
		if err := addBenchGate(c, lib, p.out, p.typ, p.ins); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, p.line, err)
		}
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c, nil
}

// addBenchGate instantiates one .bench gate: a library cell by name, or
// a classic gate type, decomposing wide gates into trees.
func addBenchGate(c *Circuit, lib *cell.Lib, out, typ string, ins []string) error {
	if cl, err := lib.Get(typ); err == nil {
		if len(ins) != len(cl.Inputs) {
			return fmt.Errorf("%s needs %d inputs, got %d", cl.Name, len(cl.Inputs), len(ins))
		}
		pins := make(map[string]string, len(ins))
		for i, pin := range cl.Inputs {
			pins[pin] = ins[i]
		}
		_, err := c.AddGate(lib, cl.Name, out, pins)
		return err
	}
	pinsOf := func(names []string) map[string]string {
		pins := map[string]string{}
		letters := []string{"A", "B", "C", "D"}
		for i, n := range names {
			pins[letters[i]] = n
		}
		return pins
	}
	newTemp := func(i int) string { return fmt.Sprintf("%s_t%d", out, i) }

	switch typ {
	case "NOT":
		if len(ins) != 1 {
			return fmt.Errorf("NOT with %d inputs", len(ins))
		}
		_, err := c.AddGate(lib, "INV", out, pinsOf(ins))
		return err
	case "BUFF":
		if len(ins) != 1 {
			return fmt.Errorf("BUFF with %d inputs", len(ins))
		}
		_, err := c.AddGate(lib, "BUF", out, pinsOf(ins))
		return err
	case "AND", "OR", "NAND", "NOR":
		if len(ins) < 2 {
			return fmt.Errorf("%s with %d inputs", typ, len(ins))
		}
		base := typ
		inverted := false
		if typ == "NAND" || typ == "NOR" {
			base = typ[1:] // AND / OR
			inverted = true
		}
		// Reduce operands to at most 4 with a tree of base gates.
		temp := 0
		for len(ins) > 4 {
			var next []string
			for i := 0; i < len(ins); i += 4 {
				hi := i + 4
				if hi > len(ins) {
					hi = len(ins)
				}
				group := ins[i:hi]
				if len(group) == 1 {
					next = append(next, group[0])
					continue
				}
				temp++
				tn := newTemp(temp)
				if _, err := c.AddGate(lib, fmt.Sprintf("%s%d", base, len(group)), tn, pinsOf(group)); err != nil {
					return err
				}
				next = append(next, tn)
			}
			ins = next
		}
		final := base
		if inverted {
			final = "N" + base
		}
		_, err := c.AddGate(lib, fmt.Sprintf("%s%d", final, len(ins)), out, pinsOf(ins))
		return err
	case "XOR", "XNOR":
		if len(ins) < 2 {
			return fmt.Errorf("%s with %d inputs", typ, len(ins))
		}
		// Chain XOR2 cells; the last stage is XOR2 or XNOR2.
		cur := ins[0]
		temp := 0
		for i := 1; i < len(ins); i++ {
			last := i == len(ins)-1
			cellName := "XOR2"
			target := out
			if !last {
				temp++
				target = newTemp(temp)
			} else if typ == "XNOR" {
				cellName = "XNOR2"
			}
			if _, err := c.AddGate(lib, cellName, target, map[string]string{"A": cur, "B": ins[i]}); err != nil {
				return err
			}
			cur = target
		}
		return nil
	default:
		return fmt.Errorf("unsupported gate type %q", typ)
	}
}

// WriteBench writes the circuit in the extended .bench dialect
// ParseBench reads: library cells appear with their cell names and pin
// order, so complex gates round-trip as e.g. "n12 = AO22(a, b, c, d)".
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d inputs, %d outputs, %d gates\n", c.Name, len(c.Inputs), len(c.Outputs), len(c.Gates))
	for _, n := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", n.Name)
	}
	for _, n := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", n.Name)
	}
	topo, err := c.TopoGates()
	if err != nil {
		return err
	}
	for _, g := range topo {
		ins := make([]string, len(g.Cell.Inputs))
		for i, pin := range g.Cell.Inputs {
			ins[i] = g.Fanin[pin].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Out.Name, g.Cell.Name, strings.Join(ins, ", "))
	}
	return bw.Flush()
}
