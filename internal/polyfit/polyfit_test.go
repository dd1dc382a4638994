package polyfit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tpsta/internal/num"
)

func TestFitExactQuadratic(t *testing.T) {
	// y = 2 + 3x + 0.5x² must be recovered exactly (within fp noise).
	var samples []Sample
	for x := 0.0; x <= 5; x += 0.5 {
		samples = append(samples, Sample{X: []float64{x}, Y: 2 + 3*x + 0.5*x*x})
	}
	m, err := Fit([]string{"x"}, []int{2}, samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if got := m.Eval(s.X); math.Abs(got-s.Y) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", s.X, got, s.Y)
		}
	}
	// Interpolation between sample points.
	if got := m.Eval([]float64{1.25}); math.Abs(got-(2+3*1.25+0.5*1.25*1.25)) > 1e-9 {
		t.Errorf("interpolated value %v", got)
	}
}

func TestFitMultivariateCrossTerm(t *testing.T) {
	// y = 1 + x + 2y + 3xy over a grid.
	var samples []Sample
	for x := 0.0; x <= 3; x++ {
		for y := 0.0; y <= 3; y++ {
			samples = append(samples, Sample{X: []float64{x, y}, Y: 1 + x + 2*y + 3*x*y})
		}
	}
	m, err := Fit([]string{"x", "y"}, []int{1, 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.MaxRelError(samples, 1e-9); e > 1e-9 {
		t.Errorf("max rel error %g", e)
	}
	if got := m.Eval([]float64{1.5, 2.5}); math.Abs(got-(1+1.5+5+3*1.5*2.5)) > 1e-9 {
		t.Errorf("cross-term eval = %v", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]string{"x"}, []int{1, 2}, nil); err == nil {
		t.Error("mismatched vars/orders should fail")
	}
	s := []Sample{{X: []float64{1}, Y: 1}}
	if _, err := Fit([]string{"x"}, []int{2}, s); err == nil {
		t.Error("underdetermined fit should fail")
	}
	bad := []Sample{{X: []float64{1, 2}, Y: 1}, {X: []float64{2, 3}, Y: 2}}
	if _, err := Fit([]string{"x"}, []int{1}, bad); err == nil {
		t.Error("wrong sample arity should fail")
	}
}

func TestConstantVariableHandled(t *testing.T) {
	// Third variable constant across samples (e.g. temperature fixed at
	// nominal): fit must not blow up and the model must still be correct.
	var samples []Sample
	for x := 0.0; x <= 4; x++ {
		for y := 0.0; y <= 4; y++ {
			samples = append(samples, Sample{X: []float64{x, y, 25}, Y: 5 + 2*x + y})
		}
	}
	m, _, err := FitAuto([]string{"x", "y", "T"}, samples, AutoOptions{Target: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if e := m.MaxRelError(samples, 1e-9); e > 1e-6 {
		t.Errorf("max rel error %g", e)
	}
	if m.Orders[2] != 0 {
		t.Errorf("constant variable got order %d", m.Orders[2])
	}
}

func TestFitAutoGrowsOrders(t *testing.T) {
	// A cubic in x: auto fit starting at order 1 must grow to order 3.
	var samples []Sample
	for x := -3.0; x <= 3; x += 0.25 {
		samples = append(samples, Sample{X: []float64{x}, Y: 1 + x*x*x})
	}
	m, maxErr, err := FitAuto([]string{"x"}, samples, AutoOptions{Target: 0.001, ErrorFloor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Orders[0] < 3 {
		t.Errorf("order %d, want >= 3", m.Orders[0])
	}
	if maxErr > 0.001 {
		t.Errorf("max error %g above target", maxErr)
	}
}

func TestFitAutoRespectsMaxOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 60; i++ {
		x := r.Float64() * 10
		samples = append(samples, Sample{X: []float64{x}, Y: math.Sin(x)})
	}
	m, _, err := FitAuto([]string{"x"}, samples, AutoOptions{Target: 1e-9, MaxOrder: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Orders[0] > 3 {
		t.Errorf("order %d exceeds cap", m.Orders[0])
	}
}

func TestNumTerms(t *testing.T) {
	if NumTerms([]int{1, 1}) != 4 || NumTerms([]int{2, 0, 1}) != 6 || NumTerms(nil) != 1 {
		t.Error("NumTerms wrong")
	}
}

func TestErrorMetrics(t *testing.T) {
	samples := []Sample{{X: []float64{0}, Y: 1}, {X: []float64{1}, Y: 2}}
	m, err := Fit([]string{"x"}, []int{1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.MaxRelError(samples, 1e-12); e > 1e-12 {
		t.Errorf("exact fit max err %g", e)
	}
	if e := m.MeanRelError(samples, 1e-12); e > 1e-12 {
		t.Errorf("exact fit mean err %g", e)
	}
	if MeanIsZeroForEmpty := m.MeanRelError(nil, 1e-12); !num.IsZero(MeanIsZeroForEmpty) {
		t.Error("mean error of no samples should be 0")
	}
}

// TestModelValidate: a fitted model is valid, and each shape fault Eval
// would panic on or misread — and a non-finite value — is rejected.
func TestModelValidate(t *testing.T) {
	valid := func() *Model {
		return &Model{Vars: []string{"x", "y"}, Orders: []int{1, 2},
			Coef: make([]float64, 6), Lo: []float64{0, 0}, Scale: []float64{1, 1}}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	for name, corrupt := range map[string]func(m *Model){
		"orders short":   func(m *Model) { m.Orders = m.Orders[:1] },
		"lo short":       func(m *Model) { m.Lo = m.Lo[:1] },
		"scale long":     func(m *Model) { m.Scale = append(m.Scale, 1) },
		"negative order": func(m *Model) { m.Orders[0] = -1 },
		"coef short":     func(m *Model) { m.Coef = m.Coef[:5] },
		"nan coef":       func(m *Model) { m.Coef[3] = math.NaN() },
		"inf lo":         func(m *Model) { m.Lo[1] = math.Inf(1) },
		"inf scale":      func(m *Model) { m.Scale[0] = math.Inf(-1) },
	} {
		m := valid()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEvalPanicsOnArity(t *testing.T) {
	m, err := Fit([]string{"x"}, []int{1}, []Sample{{X: []float64{0}, Y: 0}, {X: []float64{1}, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Eval with wrong arity should panic")
		}
	}()
	m.Eval([]float64{1, 2})
}

// TestPropertyFitRecoversRandomPolynomials: for random polynomials within
// the fitted order, least squares on a sufficient grid recovers the
// function everywhere on the grid's hull.
func TestPropertyFitRecoversRandomPolynomials(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		poly := func(x, y float64) float64 { return c[0] + c[1]*x + c[2]*y + c[3]*x*y }
		var samples []Sample
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				x, y := float64(i)*1.3+0.5, float64(j)*0.7-2
				samples = append(samples, Sample{X: []float64{x, y}, Y: poly(x, y)})
			}
		}
		m, err := Fit([]string{"x", "y"}, []int{1, 1}, samples)
		if err != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			// Stay inside the sampled hull: Eval clamps outside it.
			x := 0.5 + r.Float64()*5.2
			y := r.Float64()*2.8 - 2
			if math.Abs(m.Eval([]float64{x, y})-poly(x, y)) > 1e-6*(1+math.Abs(poly(x, y))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRealisticDelayShapeFit(t *testing.T) {
	// A delay-like surface: d = a·R·(C + c0) + b·tin, nonlinear in
	// nothing — then a harder one with √tin interaction. FitAuto should
	// reach 2 % on the smooth surface with low orders.
	var samples []Sample
	for _, fo := range []float64{0.5, 1, 2, 4, 8} {
		for _, tin := range []float64{10, 30, 80, 150, 250} {
			d := 20 + 14*fo + 0.18*tin + 0.02*tin*math.Sqrt(fo)
			samples = append(samples, Sample{X: []float64{fo, tin}, Y: d})
		}
	}
	m, maxErr, err := FitAuto([]string{"Fo", "Tin"}, samples, AutoOptions{Target: 0.02, ErrorFloor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 0.02 {
		t.Errorf("auto fit max err %.3f%% above 2%%", maxErr*100)
	}
	if m.Orders[0] > 4 || m.Orders[1] > 4 {
		t.Errorf("orders too high: %v", m.Orders)
	}
}

func TestEvalClampsOutsideRange(t *testing.T) {
	// y = x over [0, 10]; queries beyond the sampled range answer the
	// border value instead of extrapolating.
	var samples []Sample
	for x := 0.0; x <= 10; x++ {
		samples = append(samples, Sample{X: []float64{x}, Y: x})
	}
	m, err := Fit([]string{"x"}, []int{1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval([]float64{50}); math.Abs(got-10) > 1e-9 {
		t.Errorf("Eval(50) = %v, want clamp to 10", got)
	}
	if got := m.Eval([]float64{-3}); math.Abs(got-0) > 1e-9 {
		t.Errorf("Eval(-3) = %v, want clamp to 0", got)
	}
}

func BenchmarkEval2D(b *testing.B) {
	var samples []Sample
	for _, fo := range []float64{0.5, 1, 2, 4, 8} {
		for _, tin := range []float64{10, 30, 80, 150, 250} {
			samples = append(samples, Sample{X: []float64{fo, tin, 25, 1.2}, Y: 20 + 14*fo + 0.2*tin})
		}
	}
	m, _, err := FitAuto([]string{"Fo", "Tin", "T", "VDD"}, samples, AutoOptions{})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{2.3, 47, 25, 1.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eval(x)
	}
}
