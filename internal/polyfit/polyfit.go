// Package polyfit implements the paper's analytical delay model (Section
// IV.A): a multivariate polynomial
//
//	f(x₁..x_k) = Σ P_{i₁..i_k} · x₁^{i₁} · … · x_k^{i_k}
//
// fitted to electrical-simulation samples by linear least squares over the
// monomial basis (normal equations, Gaussian elimination with partial
// pivoting). FitAuto reproduces the paper's "recursive polynomial
// regression procedure": per-variable maximum orders are grown until the
// worst relative estimation error meets the requested accuracy target.
//
// Variables are normalized to their sample ranges before fitting to keep
// the normal equations well conditioned; the normalization is stored in
// the model so evaluation is transparent to callers.
package polyfit

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"tpsta/internal/num"
)

// fitSolves counts least-squares solves performed by Fit since process
// start. FitAuto's recursive regression tries several candidate orders
// per accepted model, so this is the "regression iterations" figure of
// a characterization run; read deltas around the region of interest.
var fitSolves atomic.Int64

// FitSolves returns the process-wide least-squares solve count.
func FitSolves() int64 { return fitSolves.Load() }

// Model is a fitted multivariate polynomial.
type Model struct {
	// Vars names the model variables in order (e.g. "Fo", "Tin", "T", "VDD").
	Vars []string `json:"vars"`
	// Orders holds the maximum exponent per variable.
	Orders []int `json:"orders"`
	// Coef holds one coefficient per monomial, indexed by mixed-radix
	// exponent vectors: index = Σ exp[i]·stride[i], stride[0]=1,
	// stride[i+1]=stride[i]·(Orders[i]+1).
	Coef []float64 `json:"coef"`
	// Lo and Scale normalize inputs: xn = (x - Lo) * Scale.
	Lo    []float64 `json:"lo"`
	Scale []float64 `json:"scale"`
}

// Validate checks the shape Eval relies on: one order, Lo and Scale
// entry per variable, non-negative orders, one coefficient per monomial
// (NumTerms) and finite normalization and coefficient values. Fit
// always builds a valid model; Validate guards one read from a file.
func (m *Model) Validate() error {
	k := len(m.Vars)
	if len(m.Orders) != k || len(m.Lo) != k || len(m.Scale) != k {
		return fmt.Errorf("polyfit: %d variables with %d orders, %d lo and %d scale values",
			k, len(m.Orders), len(m.Lo), len(m.Scale))
	}
	for i, o := range m.Orders {
		if o < 0 {
			return fmt.Errorf("polyfit: negative order %d for %s", o, m.Vars[i])
		}
	}
	if n := NumTerms(m.Orders); len(m.Coef) != n {
		return fmt.Errorf("polyfit: %d coefficients for %d terms", len(m.Coef), n)
	}
	for _, vs := range [][]float64{m.Lo, m.Scale, m.Coef} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("polyfit: non-finite value %g", v)
			}
		}
	}
	return nil
}

// Sample is one observation: the variable values and the measured output.
type Sample struct {
	X []float64
	Y float64
}

// NumTerms returns the number of monomials for the given orders.
func NumTerms(orders []int) int {
	n := 1
	for _, o := range orders {
		n *= o + 1
	}
	return n
}

// evalMaxVars and evalMaxOrder bound the allocation-free fast path of
// Eval; models beyond them fall back to the generic path.
const (
	evalMaxVars  = 6
	evalMaxOrder = 8
)

// Eval evaluates the model at x (same order as Vars). Inputs are clamped
// to the characterized range of each variable: like production LUT
// engines, the model answers border queries for out-of-range points
// rather than extrapolating a high-order polynomial.
//
// Eval is the hot path of delay queries (the paper's argument for the
// analytical model is evaluation speed); for the typical model shape
// (≤6 variables, order ≤8) it performs no allocations.
func (m *Model) Eval(x []float64) float64 {
	if len(x) != len(m.Vars) {
		panic(fmt.Sprintf("polyfit: Eval with %d values for %d variables", len(x), len(m.Vars)))
	}
	k := len(m.Vars)
	fast := k <= evalMaxVars
	for _, o := range m.Orders {
		if o >= evalMaxOrder {
			fast = false
		}
	}
	var powsArr [evalMaxVars][evalMaxOrder + 1]float64
	var pows [][evalMaxOrder + 1]float64
	var powsDyn [][]float64
	if fast {
		pows = powsArr[:k]
	} else {
		powsDyn = make([][]float64, k)
	}
	for i := 0; i < k; i++ {
		xn := (x[i] - m.Lo[i]) * m.Scale[i]
		if xn < 0 {
			xn = 0
		} else if xn > 1 {
			xn = 1
		}
		if fast {
			pows[i][0] = 1
			for e := 1; e <= m.Orders[i]; e++ {
				pows[i][e] = pows[i][e-1] * xn
			}
		} else {
			p := make([]float64, m.Orders[i]+1)
			p[0] = 1
			for e := 1; e <= m.Orders[i]; e++ {
				p[e] = p[e-1] * xn
			}
			powsDyn[i] = p
		}
	}
	total := 0.0
	var expsArr [evalMaxVars]int
	var expsDyn []int
	if !fast {
		expsDyn = make([]int, k)
	}
	exps := expsArr[:k]
	if !fast {
		exps = expsDyn
	}
	for idx := range m.Coef {
		term := m.Coef[idx]
		if !num.IsZero(term) {
			if fast {
				for i := 0; i < k; i++ {
					term *= pows[i][exps[i]]
				}
			} else {
				for i := 0; i < k; i++ {
					term *= powsDyn[i][exps[i]]
				}
			}
			total += term
		}
		// Increment mixed-radix exponent vector.
		for i := 0; i < k; i++ {
			exps[i]++
			if exps[i] <= m.Orders[i] {
				break
			}
			exps[i] = 0
		}
	}
	return total
}

// Fit performs least-squares regression with fixed per-variable orders.
// It fails when there are fewer samples than monomials or the normal
// equations are singular.
func Fit(vars []string, orders []int, samples []Sample) (*Model, error) {
	fitSolves.Add(1)
	if len(vars) != len(orders) {
		return nil, errors.New("polyfit: vars/orders length mismatch")
	}
	k := len(vars)
	nt := NumTerms(orders)
	if len(samples) < nt {
		return nil, fmt.Errorf("polyfit: %d samples for %d terms", len(samples), nt)
	}
	for _, s := range samples {
		if len(s.X) != k {
			return nil, fmt.Errorf("polyfit: sample has %d values, want %d", len(s.X), k)
		}
	}

	lo, scale := normalization(k, samples)

	// Build the design matrix rows lazily and accumulate normal equations
	// A = ΦᵀΦ (nt×nt), b = ΦᵀY.
	A := make([][]float64, nt)
	for i := range A {
		A[i] = make([]float64, nt)
	}
	b := make([]float64, nt)
	row := make([]float64, nt)
	exps := make([]int, k)
	for _, s := range samples {
		pows := make([][]float64, k)
		for i := 0; i < k; i++ {
			xn := (s.X[i] - lo[i]) * scale[i]
			p := make([]float64, orders[i]+1)
			p[0] = 1
			for e := 1; e <= orders[i]; e++ {
				p[e] = p[e-1] * xn
			}
			pows[i] = p
		}
		for i := range exps {
			exps[i] = 0
		}
		for idx := 0; idx < nt; idx++ {
			t := 1.0
			for i := 0; i < k; i++ {
				t *= pows[i][exps[i]]
			}
			row[idx] = t
			for i := 0; i < k; i++ {
				exps[i]++
				if exps[i] <= orders[i] {
					break
				}
				exps[i] = 0
			}
		}
		for i := 0; i < nt; i++ {
			for j := i; j < nt; j++ {
				A[i][j] += row[i] * row[j]
			}
			b[i] += row[i] * s.Y
		}
	}
	for i := 0; i < nt; i++ {
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
	}

	coef, err := solve(A, b)
	if err != nil {
		return nil, err
	}
	return &Model{
		Vars:   append([]string(nil), vars...),
		Orders: append([]int(nil), orders...),
		Coef:   coef,
		Lo:     lo,
		Scale:  scale,
	}, nil
}

// normalization maps each variable's sample range to [0, 1]; constant
// variables get scale 0 so they contribute only through the constant term.
func normalization(k int, samples []Sample) (lo, scale []float64) {
	lo = make([]float64, k)
	scale = make([]float64, k)
	hi := make([]float64, k)
	for i := 0; i < k; i++ {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for _, s := range samples {
		for i, v := range s.X {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	for i := 0; i < k; i++ {
		if d := hi[i] - lo[i]; d > 0 {
			scale[i] = 1 / d
		}
	}
	return lo, scale
}

// MaxRelError returns the worst |model−y|/max(|y|,floor) over samples.
func (m *Model) MaxRelError(samples []Sample, floor float64) float64 {
	worst := 0.0
	for _, s := range samples {
		denom := math.Abs(s.Y)
		if denom < floor {
			denom = floor
		}
		if e := math.Abs(m.Eval(s.X)-s.Y) / denom; e > worst {
			worst = e
		}
	}
	return worst
}

// AutoOptions tune FitAuto.
type AutoOptions struct {
	// Target is the maximum acceptable relative error (default 0.02).
	Target float64
	// MaxOrder caps any single variable's order (default 4).
	MaxOrder int
	// ErrorFloor avoids division blow-up for near-zero outputs (default:
	// 1e-12 — delays are in seconds, so 1 ps).
	ErrorFloor float64
}

func (o AutoOptions) withDefaults() AutoOptions {
	if o.Target <= 0 {
		o.Target = 0.02
	}
	if o.MaxOrder <= 0 {
		o.MaxOrder = 4
	}
	if o.ErrorFloor <= 0 {
		o.ErrorFloor = 1e-12
	}
	return o
}

// FitAuto implements the paper's recursive order-adjustment: starting from
// first order in every (non-constant) variable, it repeatedly refits,
// raising the order of the variable whose increase most reduces the
// maximum relative error, until the error target is met or no admissible
// increase helps. It returns the best model found together with its
// maximum relative error.
func FitAuto(vars []string, samples []Sample, opts AutoOptions) (*Model, float64, error) {
	opts = opts.withDefaults()
	k := len(vars)
	if k == 0 || len(samples) == 0 {
		return nil, 0, errors.New("polyfit: no variables or samples")
	}
	_, scale := normalization(k, samples)
	orders := make([]int, k)
	for i := 0; i < k; i++ {
		if !num.IsZero(scale[i]) {
			orders[i] = 1
		}
	}
	best, err := Fit(vars, orders, samples)
	if err != nil {
		return nil, 0, err
	}
	bestErr := best.MaxRelError(samples, opts.ErrorFloor)
	cur, curErr := best, bestErr
	for curErr > opts.Target {
		var candModel *Model
		var candErr float64
		candVar := -1
		for i := 0; i < k; i++ {
			if num.IsZero(scale[i]) || orders[i] >= opts.MaxOrder {
				continue
			}
			orders[i]++
			if NumTerms(orders) <= len(samples) {
				if m, err := Fit(vars, orders, samples); err == nil {
					if e := m.MaxRelError(samples, opts.ErrorFloor); candVar == -1 || e < candErr {
						candModel, candErr, candVar = m, e, i
					}
				}
			}
			orders[i]--
		}
		if candVar < 0 {
			break // every variable capped or underdetermined
		}
		// Take the best single-variable increase even when it does not yet
		// reduce the error: an odd function sees no gain from an even-order
		// bump but needs it to reach the next odd order (the "recursive"
		// part of the paper's extraction). The overall best model is kept.
		orders[candVar]++
		cur, curErr = candModel, candErr
		if curErr < bestErr {
			best, bestErr = cur, curErr
		}
	}
	return best, bestErr, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy-free
// basis (A and b are consumed).
func solve(A [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[p][col]) {
				p = r
			}
		}
		if math.Abs(A[p][col]) < 1e-300 {
			return nil, fmt.Errorf("polyfit: singular normal equations at column %d", col)
		}
		A[col], A[p] = A[p], A[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / A[col][col]
		for r := col + 1; r < n; r++ {
			f := A[r][col] * inv
			if num.IsZero(f) {
				continue
			}
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= A[r][c] * x[c]
		}
		x[r] = sum / A[r][r]
	}
	return x, nil
}
