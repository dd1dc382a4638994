package polyfit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randModel builds a random but well-formed model: random orders (some
// zero), random coefficients with exact zeros sprinkled in (Eval skips
// those), and random normalizations including the scale-0 constant-
// variable case.
func randModel(rng *rand.Rand, k int) *Model {
	m := &Model{}
	for i := 0; i < k; i++ {
		m.Vars = append(m.Vars, fmt.Sprintf("v%d", i))
		m.Orders = append(m.Orders, rng.Intn(4))
		m.Lo = append(m.Lo, rng.NormFloat64())
		if rng.Intn(5) == 0 {
			m.Scale = append(m.Scale, 0) // constant variable
		} else {
			m.Scale = append(m.Scale, rng.Float64()*3+0.1)
		}
	}
	nt := NumTerms(m.Orders)
	m.Coef = make([]float64, nt)
	for i := range m.Coef {
		if rng.Intn(4) != 0 {
			m.Coef[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestSpecializeBitIdentical is the core contract: for random models,
// random fixed subsets and random query points (in and out of the
// characterized range), the specialized kernel reproduces Model.Eval
// bit for bit.
func TestSpecializeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(5)
		m := randModel(rng, k)
		fixed := map[string]float64{}
		for i := 0; i < k; i++ {
			if rng.Intn(2) == 0 {
				fixed[m.Vars[i]] = rng.NormFloat64() * 2 // may fall outside the range
			}
		}
		s, err := m.Specialize(fixed)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		free := s.Vars()
		if len(free)+len(fixed) != k {
			t.Fatalf("trial %d: %d free + %d fixed != %d vars", trial, len(free), len(fixed), k)
		}
		for q := 0; q < 20; q++ {
			full := make([]float64, k)
			kx := make([]float64, 0, len(free))
			for i, name := range m.Vars {
				if v, ok := fixed[name]; ok {
					full[i] = v
				} else {
					full[i] = rng.NormFloat64() * 2
					kx = append(kx, full[i])
				}
			}
			want := m.Eval(full)
			got := s.Eval(kx)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("trial %d query %d: Eval %v (%x) vs Specialized %v (%x)",
					trial, q, want, math.Float64bits(want), got, math.Float64bits(got))
			}
		}
	}
}

func TestSpecializeAllOrNoneFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randModel(rng, 3)
	x := []float64{0.3, -1.2, 0.9}

	none, err := m.Specialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := none.Eval(x), m.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("none fixed: %v vs %v", got, want)
	}

	all, err := m.Specialize(map[string]float64{"v0": x[0], "v1": x[1], "v2": x[2]})
	if err != nil {
		t.Fatal(err)
	}
	if all.NumTerms() > len(m.Coef) {
		t.Errorf("terms grew: %d > %d", all.NumTerms(), len(m.Coef))
	}
	if got, want := all.Eval(nil), m.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("all fixed: %v vs %v", got, want)
	}
}

func TestSpecializeUnknownVar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randModel(rng, 2)
	if _, err := m.Specialize(map[string]float64{"nope": 1}); err == nil {
		t.Fatal("expected error for unknown variable")
	}
}

func TestSpecializeFittedModel(t *testing.T) {
	// A fitted model, like the characterization flow produces, stays
	// bit-identical after fixing its trailing variables.
	var samples []Sample
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64(), 25 + rng.Float64()*100, 1 + rng.Float64()*0.2}
		y := 1 + 2*x[0] + x[0]*x[1] + 0.1*x[2] + 0.5*x[3]*x[3] + 0.03*x[0]*x[2]
		samples = append(samples, Sample{X: x, Y: y})
	}
	m, _, err := FitAuto([]string{"Fo", "Tin", "T", "VDD"}, samples, AutoOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Specialize(map[string]float64{"T": 25, "VDD": 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Vars(); len(v) != 2 || v[0] != "Fo" || v[1] != "Tin" {
		t.Fatalf("free vars %v", v)
	}
	for q := 0; q < 50; q++ {
		fo, tin := rng.Float64()*5, rng.Float64()*1.2
		want := m.Eval([]float64{fo, tin, 25, 1.1})
		got := s.Eval([]float64{fo, tin})
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("query %d: %v vs %v", q, want, got)
		}
	}
}

func TestSpecializedEvalArgCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randModel(rng, 3)
	s, err := m.Specialize(map[string]float64{"v2": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	s.Eval([]float64{1})
}
