package cell

import (
	"tpsta/internal/expr"
	"tpsta/internal/logic"
)

// The tabulated evaluator: every cell holds its output for each
// combination of the nine input Values, computed from Function.Eval
// when the cell is built, so evaluating it is one table load. A row
// index folds the input Values in Inputs order, the first input most
// significant. Cells have at most four inputs, so a table holds at most
// 9^4 = 6,561 Values.

// Fold appends the Value of the next input pin to a partial row index.
// Folding the Values of every input in Inputs order, starting from 0,
// gives the row of Table that holds the cell's output.
func Fold(row int, v logic.Value) int { return row*logic.NumValues + int(v) }

// Table returns the cell's output for every row built by Fold. It is
// shared with the cell: callers must not modify it.
func (c *Cell) Table() []logic.Value { return c.table }

// tabulate evaluates fn over every combination of Values of inputs, in
// Fold's row order.
func tabulate(fn expr.Node, inputs []string) []logic.Value {
	rows := 1
	for range inputs {
		rows *= logic.NumValues
	}
	table := make([]logic.Value, rows)
	env := make(map[string]logic.Value, len(inputs))
	for row := range table {
		x := row
		for i := len(inputs) - 1; i >= 0; i-- {
			env[inputs[i]] = logic.Value(x % logic.NumValues)
			x /= logic.NumValues
		}
		table[row] = fn.Eval(env)
	}
	return table
}
