// Package num provides the repository's sanctioned floating-point
// comparisons. Delay and slew values are produced by polynomial SPDM
// evaluation, table interpolation and iterative solves; the same
// physical quantity computed along two different code paths agrees
// only to rounding. Raw ==/!= on such values is banned by the
// floatcmp analyzer (internal/analysis/floatcmp); these helpers are
// what it points at.
//
// Eq is the general-purpose comparison: exact equality (which also
// covers equal infinities), an absolute floor for values near zero,
// and a relative tolerance everywhere else. IsZero guards divisions
// and detects unset/degenerate quantities.
package num

import "math"

const (
	// RelTol is the relative tolerance of Eq: about a thousand ulps
	// at double precision, far tighter than any physical model in
	// this engine and far looser than accumulated rounding.
	RelTol = 1e-12
	// AbsTol is the floor below which magnitudes are treated as zero.
	// Delay, slew, capacitance and voltage values in this module are
	// O(1e-3..1e3) in their working units, so 1e-12 is deep below
	// signal.
	AbsTol = 1e-12
)

// Eq reports whether a and b are equal within RelTol/AbsTol.
// NaN equals nothing; equal infinities are equal.
func Eq(a, b float64) bool {
	if a == b { // stalint:ignore floatcmp the one sanctioned exact comparison: fast path and ±Inf
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // unequal infinities, or infinite vs finite
	}
	d := math.Abs(a - b)
	if d <= AbsTol {
		return true
	}
	return d <= RelTol*math.Max(math.Abs(a), math.Abs(b))
}

// IsZero reports whether x is zero within AbsTol.
func IsZero(x float64) bool {
	return math.Abs(x) <= AbsTol
}
