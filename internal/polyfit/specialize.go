package polyfit

import (
	"fmt"

	"tpsta/internal/num"
)

// Specialized is a model partially evaluated at fixed values of a
// subset of its variables (see Model.Specialize): an STA run fixes
// temperature and supply for its whole duration, so the 4-variable arc
// models collapse to 2-variable (Fo, Tin) kernels evaluated millions of
// times at one operating point.
//
// Evaluation is bit-identical to the original Model.Eval with the fixed
// variables at their Specialize-time values. IEEE-754 addition and
// multiplication are order-sensitive, so the construction performs no
// reassociation: the coefficient summation order and the per-monomial
// factor order of Model.Eval are preserved exactly. Only two
// simplifications are taken, both exact: zero-exponent factors are
// dropped (multiplying by an exact 1.0 is an IEEE identity) and the
// fixed variables' clamped power tables are computed once, by the same
// recurrence Eval uses, instead of per query.
//
// A Specialized model is immutable after construction and safe for
// concurrent Eval from any number of goroutines.
type Specialized struct {
	vars   []string  // free variable names, in original model order
	lo     []float64 // free-variable normalization, copied from the model
	scale  []float64
	orders []int

	terms []specTerm
	ops   []specOp // flat factor pool; terms index slices of it

	// Fixed-variable bookkeeping for Pool.RespecBatch: the names,
	// normalization and orders of the Specialize-time fixed variables,
	// in original model order. A fixed op encodes its variable as
	// free = -1-fi into this table, so a new operating point only has
	// to re-fold the constants — no coefficient-lattice walk.
	fixedVars   []string
	fixedLo     []float64
	fixedScale  []float64
	fixedOrders []int

	// evalFast memoizes the stack-allocated fast-path eligibility
	// (every free variable within evalMaxVars/evalMaxOrder), so Eval
	// does not re-derive it with a loop over orders on every call.
	evalFast bool
}

// specTerm is one surviving monomial: its coefficient and its factor
// range [lo, hi) in the shared op pool.
type specTerm struct {
	coef   float64
	lo, hi uint32
}

// specOp is one multiplication step of a monomial, in original variable
// order: a free-variable power lookup (free >= 0) or a precomputed
// fixed-variable power (free < 0, value in c).
type specOp struct {
	free int16
	exp  uint16
	c    float64
}

// Specialize partially evaluates the model at the given fixed variable
// values and returns the kernel over the remaining variables, which
// keep their original relative order. Every key of fixed must name a
// model variable. The fixed values are normalized and clamped to the
// characterized range exactly as Eval would clamp them, so a fixed
// point outside the sweep evaluates at the border, like any other
// query.
func (m *Model) Specialize(fixed map[string]float64) (*Specialized, error) {
	k := len(m.Vars)
	byName := make(map[string]int, k)
	for i, v := range m.Vars {
		byName[v] = i
	}
	for name := range fixed {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("polyfit: Specialize: %q is not a model variable (have %v)", name, m.Vars)
		}
	}
	s := &Specialized{}
	freeOf := make([]int, k)  // original index → free index, -1 when fixed
	fixedOf := make([]int, k) // original index → fixed index, -1 when free
	fixedPows := make([][]float64, k)
	for i, name := range m.Vars {
		v, isFixed := fixed[name]
		if !isFixed {
			freeOf[i] = len(s.vars)
			fixedOf[i] = -1
			s.vars = append(s.vars, name)
			s.lo = append(s.lo, m.Lo[i])
			s.scale = append(s.scale, m.Scale[i])
			s.orders = append(s.orders, m.Orders[i])
			continue
		}
		freeOf[i] = -1
		fixedOf[i] = len(s.fixedVars)
		s.fixedVars = append(s.fixedVars, name)
		s.fixedLo = append(s.fixedLo, m.Lo[i])
		s.fixedScale = append(s.fixedScale, m.Scale[i])
		s.fixedOrders = append(s.fixedOrders, m.Orders[i])
		xn := (v - m.Lo[i]) * m.Scale[i]
		if xn < 0 {
			xn = 0
		} else if xn > 1 {
			xn = 1
		}
		p := make([]float64, m.Orders[i]+1)
		p[0] = 1
		for e := 1; e <= m.Orders[i]; e++ {
			p[e] = p[e-1] * xn
		}
		fixedPows[i] = p
	}
	// Walk the coefficients in Eval's mixed-radix order, recording the
	// factor sequence of every monomial Eval would not skip.
	exps := make([]int, k)
	for _, coef := range m.Coef {
		if !num.IsZero(coef) {
			lo := uint32(len(s.ops))
			for i := 0; i < k; i++ {
				e := exps[i]
				if e == 0 {
					continue // pows[i][0] is exactly 1.0; the multiply is a no-op
				}
				if fi := freeOf[i]; fi >= 0 {
					s.ops = append(s.ops, specOp{free: int16(fi), exp: uint16(e)})
				} else {
					s.ops = append(s.ops, specOp{free: int16(-1 - fixedOf[i]), exp: uint16(e), c: fixedPows[i][e]})
				}
			}
			s.terms = append(s.terms, specTerm{coef: coef, lo: lo, hi: uint32(len(s.ops))})
		}
		for i := 0; i < k; i++ {
			exps[i]++
			if exps[i] <= m.Orders[i] {
				break
			}
			exps[i] = 0
		}
	}
	s.evalFast = len(s.vars) <= evalMaxVars
	for _, o := range s.orders {
		if o >= evalMaxOrder {
			s.evalFast = false
		}
	}
	return s, nil
}

// Vars returns the free variable names in Eval's argument order.
func (s *Specialized) Vars() []string { return append([]string(nil), s.vars...) }

// NumTerms returns the number of surviving monomials.
func (s *Specialized) NumTerms() int { return len(s.terms) }

// Eval evaluates the kernel at x (one value per free variable, in Vars
// order). Inputs are clamped to the characterized range like
// Model.Eval, and the result is bit-identical to the original model
// evaluated with the fixed variables at their Specialize-time values.
// For the typical kernel shape (≤6 free variables of order ≤8) it
// performs no allocations.
func (s *Specialized) Eval(x []float64) float64 {
	if len(x) != len(s.vars) {
		// stalint:ignore noalloc arity-mismatch panic is a caller bug, not a query outcome
		panic(fmt.Sprintf("polyfit: Specialized.Eval with %d values for %d variables", len(x), len(s.vars)))
	}
	k := len(s.vars)
	if s.evalFast {
		var pows [evalMaxVars][evalMaxOrder + 1]float64
		for i := 0; i < k; i++ {
			xn := (x[i] - s.lo[i]) * s.scale[i]
			if xn < 0 {
				xn = 0
			} else if xn > 1 {
				xn = 1
			}
			pows[i][0] = 1
			for e := 1; e <= s.orders[i]; e++ {
				pows[i][e] = pows[i][e-1] * xn
			}
		}
		total := 0.0
		for ti := range s.terms {
			t := &s.terms[ti]
			term := t.coef
			for _, op := range s.ops[t.lo:t.hi] {
				if op.free >= 0 {
					term *= pows[op.free][op.exp]
				} else {
					term *= op.c
				}
			}
			total += term
		}
		return total
	}
	// stalint:alloc-ok beyond-kernel-shape fallback (more than evalMaxVars variables or order beyond evalMaxOrder); run-specialized 2-variable kernels stay on the stack path above
	pows := make([][]float64, k)
	for i := 0; i < k; i++ {
		xn := (x[i] - s.lo[i]) * s.scale[i]
		if xn < 0 {
			xn = 0
		} else if xn > 1 {
			xn = 1
		}
		p := make([]float64, s.orders[i]+1)
		p[0] = 1
		for e := 1; e <= s.orders[i]; e++ {
			p[e] = p[e-1] * xn
		}
		pows[i] = p
	}
	total := 0.0
	for ti := range s.terms {
		t := &s.terms[ti]
		term := t.coef
		for _, op := range s.ops[t.lo:t.hi] {
			if op.free >= 0 {
				term *= pows[op.free][op.exp]
			} else {
				term *= op.c
			}
		}
		total += term
	}
	return total
}
