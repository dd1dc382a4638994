package polyfit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpsta/internal/num"
)

// poolTestModel builds a deterministic 4-variable model of the arc
// shape (Fo, Tin, T, VDD) with dense pseudo-random coefficients.
func poolTestModel(t *testing.T, seed int64, orders [4]int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		Vars:   []string{"Fo", "Tin", "T", "VDD"},
		Lo:     []float64{1, 10e-12, -40, 1.0},
		Scale:  []float64{1.0 / 7, 1 / 190e-12, 1.0 / 165, 1 / 0.6},
		Orders: orders[:],
	}
	n := 1
	for _, o := range m.Orders {
		n *= o + 1
	}
	m.Coef = make([]float64, n)
	for i := range m.Coef {
		c := rng.NormFloat64()
		if rng.Intn(4) == 0 {
			c = 0 // exercise zero-coefficient term dropping
		}
		m.Coef[i] = c
	}
	return m
}

// poolTestModels builds the model family the pool tests compile.
func poolTestModels(t *testing.T) []*Model {
	t.Helper()
	var models []*Model
	for i, sh := range [][4]int{{2, 3, 1, 1}, {3, 2, 2, 1}, {1, 1, 1, 1}, {4, 4, 1, 2}} {
		models = append(models, poolTestModel(t, int64(100+i), sh))
	}
	return models
}

// poolAt compiles models at (temp, vdd) into a fresh pool, kernel i
// from model i.
func poolAt(t *testing.T, models []*Model, temp, vdd float64) *Pool {
	t.Helper()
	pool := NewPool()
	for i, m := range models {
		id, err := pool.Add(m, map[string]float64{"T": temp, "VDD": vdd})
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("kernel %d got pool ID %d", i, id)
		}
	}
	return pool
}

// poolTestPoints covers the interior, the borders and the clamped
// outside of the characterized square.
func poolTestPoints() [][2]float64 {
	return [][2]float64{
		{1, 10e-12}, {4, 100e-12}, {8, 200e-12},
		{0.5, 5e-12}, {9, 300e-12}, {-1, -5e-12},
		{3.3, 73e-12}, {6.7, 151e-12},
	}
}

// randPoolModel builds a random but well-formed model over k = 2..4
// variables, the first two free and the rest fixed: random orders
// (some zero), random coefficients with exact zeros sprinkled in (Eval
// skips those), and random normalizations including the scale-0
// constant-variable case.
func randPoolModel(rng *rand.Rand, k int) *Model {
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
	m.Coef = make([]float64, NumTerms(m.Orders))
	for i := range m.Coef {
		if rng.Intn(4) != 0 {
			m.Coef[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestPoolAddBitIdentical is the compilation contract: for random
// models with zero, one or two fixed variables, random fixed values
// and random query points (in and out of the characterized range),
// the pooled kernel reproduces Model.Eval bit for bit.
func TestPoolAddBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pow := make([]float64, NewPool().ScratchLen())
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(3)
		m := randPoolModel(rng, k)
		fixed := map[string]float64{}
		for _, name := range m.Vars[2:] {
			fixed[name] = rng.NormFloat64() * 2 // may fall outside the range
		}
		pool := NewPool()
		id, err := pool.Add(m, fixed)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 20; q++ {
			x := make([]float64, k)
			for i, name := range m.Vars {
				if v, ok := fixed[name]; ok {
					x[i] = v
				} else {
					x[i] = rng.NormFloat64() * 2
				}
			}
			want := m.Eval(x)
			got := pool.EvalOne(id, x[0], x[1], pow)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("trial %d query %d: Eval %v (%x) vs pool %v (%x)",
					trial, q, want, math.Float64bits(want), got, math.Float64bits(got))
			}
		}
	}
}

// TestPoolAddFittedModel checks a fitted model, like the
// characterization flow produces, stays bit-identical once its
// trailing variables are fixed.
func TestPoolAddFittedModel(t *testing.T) {
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
	pool := NewPool()
	id, err := pool.Add(m, map[string]float64{"T": 25, "VDD": 1.1})
	if err != nil {
		t.Fatal(err)
	}
	pow := make([]float64, pool.ScratchLen())
	for q := 0; q < 50; q++ {
		fo, tin := rng.Float64()*5, rng.Float64()*1.2
		want := m.Eval([]float64{fo, tin, 25, 1.1})
		got := pool.EvalOne(id, fo, tin, pow)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("query %d: %v vs %v", q, want, got)
		}
	}
}

// TestPoolEvalOneBitIdentical pins the scalar pool entry point against
// Model.Eval at the fixed operating point, bit for bit.
func TestPoolEvalOneBitIdentical(t *testing.T) {
	models := poolTestModels(t)
	pool := poolAt(t, models, 25, 1.2)
	pow := make([]float64, pool.ScratchLen())
	for ki, m := range models {
		for _, pt := range poolTestPoints() {
			want := m.Eval([]float64{pt[0], pt[1], 25, 1.2})
			got := pool.EvalOne(int32(ki), pt[0], pt[1], pow)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("kernel %d at %v: pool %v vs model %v", ki, pt, got, want)
			}
		}
	}
}

// TestPoolEvalBatchBitIdentical runs the two-pass batched evaluation
// (PowLane per lane, then one SumBatch) at every lane count from a
// single lane through several BatchWidth rounds plus a tail, with the
// lanes cycling over distinct kernels, and checks each lane bit for bit
// against Model.Eval of that kernel's model alone.
func TestPoolEvalBatchBitIdentical(t *testing.T) {
	models := poolTestModels(t)
	pool := poolAt(t, models, 25, 1.2)
	pts := poolTestPoints()
	for n := 1; n <= 3*BatchWidth+3; n++ {
		ids := make([]int32, n)
		x := make([][2]float64, n)
		pow := make([]float64, n*pool.LaneLen())
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			ids[i] = int32((i * 7) % len(models))
			x[i] = pts[(i*5)%len(pts)]
			pool.PowLane(ids[i], x[i][0], x[i][1], pow[i*pool.LaneLen():])
		}
		pool.SumBatch(ids, pow, out)
		for i := 0; i < n; i++ {
			want := models[ids[i]].Eval([]float64{x[i][0], x[i][1], 25, 1.2})
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("n=%d lane %d (kernel %d): batch %v vs model %v", n, i, ids[i], out[i], want)
			}
		}
	}
}

// TestPoolAddRejectsNon2Var pins the pool's fixed lane shape: models
// that leave any free-variable count other than two are rejected, and
// a rejected model leaves the pool untouched.
func TestPoolAddRejectsNon2Var(t *testing.T) {
	m := poolTestModel(t, 7, [4]int{2, 2, 1, 1})
	for _, fixed := range []map[string]float64{
		{"VDD": 1.2},                         // 3 free variables
		{"T": 25, "VDD": 1.2, "Tin": 40e-12}, // 1 free variable
	} {
		pool := NewPool()
		if id, err := pool.Add(m, fixed); err == nil {
			t.Errorf("Add accepted %d free variables (ID %d)", len(m.Vars)-len(fixed), id)
		}
		if pool.NumKernels() != 0 || pool.NumTerms() != 0 {
			t.Errorf("rejected model left %d kernels, %d terms", pool.NumKernels(), pool.NumTerms())
		}
	}
	one := &Model{Vars: []string{"Fo"}, Orders: []int{1}, Coef: []float64{1, 2}, Lo: []float64{0}, Scale: []float64{1}}
	for _, fixed := range []map[string]float64{nil, {"Fo": 1}} {
		pool := NewPool()
		if id, err := pool.Add(one, fixed); err == nil {
			t.Errorf("Add accepted a 1-variable model fixing %v (ID %d)", fixed, id)
		}
		if pool.NumKernels() != 0 || pool.NumTerms() != 0 {
			t.Errorf("rejected model left %d kernels, %d terms", pool.NumKernels(), pool.NumTerms())
		}
	}
}

// TestPoolAddRejectsFixedVars pins the checks on the fixed variables:
// a fixed name the model lacks, a fixed variable ahead of a free one,
// and a model fixing other variables than the pool's earlier kernels
// are all rejected.
func TestPoolAddRejectsFixedVars(t *testing.T) {
	m := poolTestModel(t, 7, [4]int{2, 2, 1, 1})
	if _, err := NewPool().Add(m, map[string]float64{"T": 25, "VDD": 1.2, "nope": 1}); err == nil {
		t.Error("Add accepted an unknown fixed variable")
	}
	swapped := *m
	swapped.Vars = []string{"Fo", "T", "Tin", "VDD"}
	if _, err := NewPool().Add(&swapped, map[string]float64{"T": 25, "VDD": 1.2}); err == nil {
		t.Error("Add accepted a fixed variable ahead of a free one")
	}
	pool := NewPool()
	if _, err := pool.Add(m, map[string]float64{"T": 25, "VDD": 1.2}); err != nil {
		t.Fatal(err)
	}
	other := *m
	other.Vars = []string{"Fo", "Tin", "T", "Vdd"}
	if _, err := pool.Add(&other, map[string]float64{"T": 25, "Vdd": 1.2}); err == nil {
		t.Error("Add accepted a model fixing other variables than the pool")
	}
}

// TestPoolEvalZeroAlloc is the static twin's runtime check: in steady
// state the production entry points — PowLane, SumBatch, EvalOne — must
// not allocate.
func TestPoolEvalZeroAlloc(t *testing.T) {
	models := poolTestModels(t)
	pool := poolAt(t, models, 25, 1.2)
	n := 2*BatchWidth + 3
	ids := make([]int32, n)
	pow := make([]float64, n*pool.LaneLen())
	one := make([]float64, pool.ScratchLen())
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int32(i % len(models))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, k := range ids {
			pool.PowLane(k, float64(1+i%7), float64(10+i)*1e-12, pow[i*pool.LaneLen():])
		}
		pool.SumBatch(ids, pow, out)
		out[0] = pool.EvalOne(ids[0], 1, 10e-12, one)
	})
	if allocs > 0 {
		t.Errorf("pool evaluation allocates %.1f objects per query", allocs)
	}
}

// TestPoolStats pins the bookkeeping the kernel-table stats surface:
// one term per nonzero coefficient, one op per nonzero exponent of
// each term.
func TestPoolStats(t *testing.T) {
	models := poolTestModels(t)
	pool := poolAt(t, models, 25, 1.2)
	if got, want := pool.NumKernels(), len(models); got != want {
		t.Errorf("NumKernels %d, want %d", got, want)
	}
	terms, ops := 0, 0
	for _, m := range models {
		exps := make([]int, len(m.Vars))
		for _, c := range m.Coef {
			if !num.IsZero(c) {
				terms++
				for _, e := range exps {
					if e > 0 {
						ops++
					}
				}
			}
			for i := range exps {
				if exps[i]++; exps[i] <= m.Orders[i] {
					break
				}
				exps[i] = 0
			}
		}
	}
	if got := pool.NumTerms(); got != terms {
		t.Errorf("NumTerms %d, want %d", got, terms)
	}
	if got := pool.NumOps(); got != ops {
		t.Errorf("NumOps %d, want %d", got, ops)
	}
	if got, want := pool.ScratchLen(), BatchWidth*pool.LaneLen(); got != want {
		t.Errorf("ScratchLen %d, want %d", got, want)
	}
	if pool.LaneLen() <= 2*4 {
		t.Errorf("LaneLen %d cannot hold two order-4 power tables (the {4,4} shape)", pool.LaneLen())
	}
}

// TestPoolRespecBatchBitIdentical pins the corner re-fold against an
// independent build and against the models themselves: RespecBatch's
// pool must evaluate bit for bit like a pool Added from the same
// models at the same corner, and like Model.Eval there — interior,
// border and clamped corners, and re-folded again from a RespecBatch
// pool, the way a corner table bases on any cached table.
func TestPoolRespecBatchBitIdentical(t *testing.T) {
	models := poolTestModels(t)
	pool := poolAt(t, models, 25, 1.2)
	corners := [][2]float64{
		{125, 1.08}, // slow
		{-40, 1.32}, // fast
		{25, 1.2},   // the base point itself
		{200, 2.0},  // clamped outside the fitted range
	}
	pow := make([]float64, pool.ScratchLen())
	from := pool
	for _, c := range corners {
		fused, err := from.RespecBatch(map[string]float64{"T": c[0], "VDD": c[1]})
		if err != nil {
			t.Fatalf("RespecBatch at (%g, %g): %v", c[0], c[1], err)
		}
		fresh := poolAt(t, models, c[0], c[1])
		if fused.NumKernels() != fresh.NumKernels() || fused.NumTerms() != fresh.NumTerms() || fused.NumOps() != fresh.NumOps() {
			t.Fatalf("corner (%g, %g): shape %d/%d/%d, fresh build %d/%d/%d", c[0], c[1],
				fused.NumKernels(), fused.NumTerms(), fused.NumOps(), fresh.NumKernels(), fresh.NumTerms(), fresh.NumOps())
		}
		for ki, m := range models {
			for _, pt := range poolTestPoints() {
				got := fused.EvalOne(int32(ki), pt[0], pt[1], pow)
				want := fresh.EvalOne(int32(ki), pt[0], pt[1], pow)
				model := m.Eval([]float64{pt[0], pt[1], c[0], c[1]})
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(model) {
					t.Errorf("corner (%g, %g) kernel %d at %v: re-folded pool %v vs fresh build %v vs model %v",
						c[0], c[1], ki, pt, got, want, model)
				}
			}
		}
		from = fused
	}
}

// TestPoolRespecBatchRejects pins the re-fold's checks: a fixed set
// that does not cover the pool's fixed variables is rejected, and so is
// Add on a re-folded pool, whose geometry arrays the base pool shares.
func TestPoolRespecBatchRejects(t *testing.T) {
	models := poolTestModels(t)
	pool := poolAt(t, models, 25, 1.2)
	if _, err := pool.RespecBatch(map[string]float64{"T": 125}); err == nil {
		t.Error("RespecBatch accepted an incomplete fixed set")
	}
	if _, err := pool.RespecBatch(map[string]float64{"T": 125, "Vdd": 1.08}); err == nil {
		t.Error("RespecBatch accepted a misnamed fixed variable")
	}
	fused, err := pool.RespecBatch(map[string]float64{"T": 125, "VDD": 1.08})
	if err != nil {
		t.Fatal(err)
	}
	extra := poolTestModel(t, 999, [4]int{2, 2, 1, 1})
	fixed := map[string]float64{"T": 25, "VDD": 1.2}
	if _, err := fused.Add(extra, fixed); err == nil {
		t.Error("Add on a RespecBatch pool succeeded; geometry aliasing would corrupt the base")
	}
	if _, err := pool.Add(extra, fixed); err != nil {
		t.Errorf("Add on the base pool after RespecBatch: %v", err)
	}
}
