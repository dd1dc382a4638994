package circuits

import (
	"fmt"

	"tpsta/internal/cell"
	"tpsta/internal/netlist"
)

// Multiplier builds an n×n array multiplier — the actual structure of
// ISCAS c6288 (a 16×16 multiplier). Partial products are AND2 gates; each
// row of the array adds one shifted partial-product row to the running
// sum with a ripple of half/full adders, the full adders built from the
// library's XOR3 (sum) and MAJ3 (carry) complex cells. Inputs are
// a0..a{n-1} and b0..b{n-1}; outputs p0..p{2n-1} (aliased by net name of
// the finalized sum bits).
//
// The original c6288 is the NOR-level expansion of the same array (2406
// primitive gates); building it at adder-cell granularity preserves the
// topology that path counting and depth depend on, while exercising the
// complex cells (XOR3, MAJ3) whose sensitization vectors the paper
// studies.
func Multiplier(name string, n int) (*netlist.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: multiplier width %d too small", n)
	}
	lib := cell.Default()
	c := netlist.New(name)
	for i := 0; i < n; i++ {
		if _, err := c.AddInput(fmt.Sprintf("a%d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if _, err := c.AddInput(fmt.Sprintf("b%d", i)); err != nil {
			return nil, err
		}
	}
	gate := func(cellName, out string, pins map[string]string) error {
		_, err := c.AddGate(lib, cellName, out, pins)
		return err
	}

	// Partial products pp[i][j] = a_i AND b_j (weight i+j).
	pp := make([][]string, n)
	for i := 0; i < n; i++ {
		pp[i] = make([]string, n)
		for j := 0; j < n; j++ {
			out := fmt.Sprintf("pp_%d_%d", i, j)
			pp[i][j] = out
			if err := gate("AND2", out, map[string]string{
				"A": fmt.Sprintf("a%d", i), "B": fmt.Sprintf("b%d", j),
			}); err != nil {
				return nil, err
			}
		}
	}

	adders := 0
	// add sums 2 or 3 operand nets of equal weight; returns the sum net
	// and the carry net ("" when a single operand passes through).
	add := func(ops []string) (sum, carry string, err error) {
		switch len(ops) {
		case 1:
			return ops[0], "", nil
		case 2:
			adders++
			sum = fmt.Sprintf("s%d", adders)
			carry = fmt.Sprintf("c%d", adders)
			if err := gate("XOR2", sum, map[string]string{"A": ops[0], "B": ops[1]}); err != nil {
				return "", "", err
			}
			if err := gate("AND2", carry, map[string]string{"A": ops[0], "B": ops[1]}); err != nil {
				return "", "", err
			}
			return sum, carry, nil
		case 3:
			adders++
			sum = fmt.Sprintf("s%d", adders)
			carry = fmt.Sprintf("c%d", adders)
			if err := gate("XOR3", sum, map[string]string{"A": ops[0], "B": ops[1], "C": ops[2]}); err != nil {
				return "", "", err
			}
			if err := gate("MAJ3", carry, map[string]string{"A": ops[0], "B": ops[1], "C": ops[2]}); err != nil {
				return "", "", err
			}
			return sum, carry, nil
		default:
			return "", "", fmt.Errorf("circuits: add of %d operands", len(ops))
		}
	}

	// S[j] is the running sum bit of weight i+j before adding row i.
	S := append([]string(nil), pp[0]...)
	var outputs []string
	for i := 1; i < n; i++ {
		outputs = append(outputs, S[0]) // weight i-1 is final
		carry := ""
		newS := make([]string, 0, n+1)
		for j := 0; j < n; j++ {
			ops := []string{pp[i][j]}
			if j+1 < len(S) {
				ops = append(ops, S[j+1])
			}
			if carry != "" {
				ops = append(ops, carry)
			}
			var sum string
			var err error
			sum, carry, err = add(ops)
			if err != nil {
				return nil, err
			}
			newS = append(newS, sum)
		}
		if carry != "" {
			newS = append(newS, carry)
		}
		S = newS
	}
	outputs = append(outputs, S...)
	if len(outputs) != 2*n {
		return nil, fmt.Errorf("circuits: multiplier produced %d outputs, want %d", len(outputs), 2*n)
	}
	for _, net := range outputs {
		c.MarkOutput(net)
	}
	return c, nil
}
