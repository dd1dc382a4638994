package cell

import (
	"testing"

	"tpsta/internal/logic"
)

// forEachRow calls fn with every row index of c's table and the input
// Values it stands for, decoded by division (first input most
// significant), with the matching map environment for Function.Eval.
func forEachRow(c *Cell, fn func(row int, vals []logic.Value, env map[string]logic.Value)) {
	rows := 1
	for range c.Inputs {
		rows *= logic.NumValues
	}
	vals := make([]logic.Value, len(c.Inputs))
	env := make(map[string]logic.Value, len(c.Inputs))
	for row := 0; row < rows; row++ {
		x := row
		for i := len(c.Inputs) - 1; i >= 0; i-- {
			vals[i] = logic.Value(x % logic.NumValues)
			env[c.Inputs[i]] = vals[i]
			x /= logic.NumValues
		}
		fn(row, vals, env)
	}
}

// TestEvalFastMatchesEval is the exhaustive oracle of the tabulated
// evaluator: for every cell of the library, every row of the table —
// all 9^n combinations of input Values — must agree with the map-based
// expression evaluator (Function.Eval).
func TestEvalFastMatchesEval(t *testing.T) {
	for _, c := range Default().Cells() {
		forEachRow(c, func(row int, vals []logic.Value, env map[string]logic.Value) {
			if got, want := c.Table()[row], c.Function.Eval(env); got != want {
				t.Fatalf("%s: row %d %v = %s, want %s", c.Name, row, vals, got, want)
			}
		})
	}
}

// TestEvalFastExhaustiveSmallCells checks the evaluation path the
// search takes: for every cell of the library with up to 3 inputs and
// every combination of input Values, folding them one pin at a time
// (Fold) reaches the row that holds them, and Table there agrees with
// Function.Eval.
func TestEvalFastExhaustiveSmallCells(t *testing.T) {
	for _, c := range Default().Cells() {
		if len(c.Inputs) > 3 {
			continue
		}
		forEachRow(c, func(row int, vals []logic.Value, env map[string]logic.Value) {
			folded := 0
			for _, v := range vals {
				folded = Fold(folded, v)
			}
			if folded != row {
				t.Fatalf("%s: Fold(%v) = row %d, want %d", c.Name, vals, folded, row)
			}
			if got, want := c.Table()[folded], c.Function.Eval(env); got != want {
				t.Fatalf("%s: Table()[Fold(%v)] = %s, want %s", c.Name, vals, got, want)
			}
		})
	}
}

// TestJustifyCubesForceOutput: every cube really forces the required
// output value for every completion of the unassigned inputs, and no
// cube literal is redundant (minimality).
func TestJustifyCubesForceOutput(t *testing.T) {
	for _, c := range Default().Cells() {
		for _, val := range []bool{false, true} {
			cubes := JustifyCubes(c, val)
			if len(cubes) == 0 {
				t.Errorf("%s=%v: no cubes", c.Name, val)
				continue
			}
			for _, cb := range cubes {
				if !cubeForces(c, cb, val) {
					t.Errorf("%s=%v: cube %v does not force the output", c.Name, val, cb)
				}
				for drop := range cb {
					smaller := append(append(Cube{}, cb[:drop]...), cb[drop+1:]...)
					if cubeForces(c, smaller, val) {
						t.Errorf("%s=%v: cube %v has redundant literal %v", c.Name, val, cb, cb[drop])
					}
				}
			}
		}
	}
}

// cubeForces evaluates the cell over every completion of the cube.
func cubeForces(c *Cell, cb Cube, val bool) bool {
	fixed := map[string]bool{}
	for _, l := range cb {
		fixed[l.Pin] = l.Val
	}
	var free []string
	for _, pin := range c.Inputs {
		if _, ok := fixed[pin]; !ok {
			free = append(free, pin)
		}
	}
	for r := 0; r < 1<<len(free); r++ {
		env := map[string]logic.Value{}
		for pin, v := range fixed {
			env[pin] = logic.StableOf(trit(v))
		}
		for i, pin := range free {
			env[pin] = logic.StableOf(trit(r>>i&1 == 1))
		}
		out := c.Eval(env)
		if (out == logic.V1) != val {
			return false
		}
	}
	return true
}

// TestJustifyCubesComplete: every satisfying assignment is covered by
// some cube.
func TestJustifyCubesComplete(t *testing.T) {
	for _, c := range Default().Cells() {
		for _, val := range []bool{false, true} {
			cubes := JustifyCubes(c, val)
			n := len(c.Inputs)
			for r := 0; r < 1<<n; r++ {
				env := map[string]logic.Value{}
				bits := map[string]bool{}
				for i, pin := range c.Inputs {
					b := r>>i&1 == 1
					bits[pin] = b
					env[pin] = logic.StableOf(trit(b))
				}
				if (c.Eval(env) == logic.V1) != val {
					continue
				}
				covered := false
				for _, cb := range cubes {
					match := true
					for _, l := range cb {
						if bits[l.Pin] != l.Val {
							match = false
							break
						}
					}
					if match {
						covered = true
						break
					}
				}
				if !covered {
					t.Errorf("%s=%v: assignment %v not covered", c.Name, val, bits)
				}
			}
		}
	}
}

func BenchmarkEvalFastAO22(b *testing.B) {
	c := Default().MustGet("AO22")
	vals := []logic.Value{logic.VR, logic.V1, logic.V0, logic.V0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := 0
		for _, v := range vals {
			row = Fold(row, v)
		}
		_ = c.Table()[row]
	}
}

func BenchmarkEvalMapAO22(b *testing.B) {
	c := Default().MustGet("AO22")
	env := map[string]logic.Value{"A": logic.VR, "B": logic.V1, "C": logic.V0, "D": logic.V0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Eval(env)
	}
}
