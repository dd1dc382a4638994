package cell

import (
	"sort"

	"tpsta/internal/expr"
)

// Lit is one literal of a justification cube: Pin must hold Val. Index
// is the position of Pin in the cell's Inputs, so a search reaches the
// pin's net through an integer-indexed fanin table.
type Lit struct {
	Pin   string
	Index int
	Val   bool
}

// Cube is a minimal input assignment forcing a cell output value.
type Cube []Lit

// JustifyCubes returns the prime implicants of the cell's function (for
// val=true) or of its complement (val=false): the complete, minimal set
// of alternative input assignments that justify the required output
// value. Both path engines use these as their justification choices.
//
// The cubes are memoized on the cell itself behind a per-(cell, value)
// sync.Once, replacing the old name-keyed global map: concurrent
// searchers hitting the same cell on their justification hot path share
// one computation and then read the slice with no lock at all. Library
// construction pre-warms both slots of every cell.
func JustifyCubes(c *Cell, val bool) []Cube {
	i := 0
	if val {
		i = 1
	}
	j := &c.justify[i]
	j.once.Do(func() { j.cubes = primeImplicants(c, val) })
	return j.cubes
}

// implicant is a (careMask, valueBits) pair over the cell's input order.
type implicant struct {
	mask, bits uint32
}

// primeImplicants runs a small Quine–McCluskey pass over the cell's
// truth table (cells have at most 4 inputs, so at most 16 minterms).
func primeImplicants(c *Cell, val bool) []Cube {
	vars := c.Inputs
	n := len(vars)
	tt := expr.TruthTable(c.Function, vars)
	var current []implicant
	full := uint32(1<<n) - 1
	for r, out := range tt {
		if out == val {
			current = append(current, implicant{full, uint32(r)})
		}
	}
	var primes []implicant
	for len(current) > 0 {
		merged := map[implicant]bool{}
		wasMerged := make([]bool, len(current))
		var next []implicant
		for i := 0; i < len(current); i++ {
			for j := i + 1; j < len(current); j++ {
				a, b := current[i], current[j]
				if a.mask != b.mask {
					continue
				}
				diff := a.bits ^ b.bits
				if diff == 0 || diff&(diff-1) != 0 { // exactly one cared bit
					continue
				}
				m := implicant{a.mask &^ diff, a.bits &^ diff}
				if !merged[m] {
					merged[m] = true
					next = append(next, m)
				}
				wasMerged[i], wasMerged[j] = true, true
			}
		}
		for i, im := range current {
			if !wasMerged[i] {
				primes = append(primes, im)
			}
		}
		current = next
	}
	// Keep only primes not covered by a strictly more general one.
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].mask != primes[j].mask {
			return popcount(primes[i].mask) < popcount(primes[j].mask)
		}
		return primes[i].bits < primes[j].bits
	})
	var kept []implicant
	for _, p := range primes {
		covered := false
		for _, q := range kept {
			if q.mask&p.mask == q.mask && q.bits == p.bits&q.mask {
				covered = true
				break
			}
		}
		if !covered {
			kept = append(kept, p)
		}
	}
	out := make([]Cube, 0, len(kept))
	for _, p := range kept {
		var cb Cube
		for i, name := range vars {
			if p.mask&(1<<i) != 0 {
				cb = append(cb, Lit{Pin: name, Index: i, Val: p.bits&(1<<i) != 0})
			}
		}
		out = append(out, cb)
	}
	return out
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
