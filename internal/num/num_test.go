package num

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1.0, 1.0, true},
		{0, 0, true},
		{0, 1e-13, true},         // under AbsTol
		{0, 1e-9, false},         // above AbsTol, relative scale ~0
		{1.0, 1.0 + 1e-13, true}, // within RelTol
		{1.0, 1.0 + 1e-9, false}, // outside RelTol
		{1e6, 1e6 * (1 + 1e-13), true},
		{1e6, 1e6 + 1, false},
		{-2.5, -2.5, true},
		{2.5, -2.5, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.Inf(1), 1e308, false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsZero(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want bool
	}{
		{0, true},
		{1e-13, true},
		{-1e-13, true},
		{1e-11, false},
		{1, false},
		{math.Inf(1), false},
		{math.NaN(), false},
	} {
		if got := IsZero(c.x); got != c.want {
			t.Errorf("IsZero(%g) = %v, want %v", c.x, got, c.want)
		}
	}
}
