package polyfit

import (
	"math"
	"math/rand"
	"testing"
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

// poolTestKernels specializes a family of models at one operating
// point, returning the kernels and a pool holding all of them.
func poolTestKernels(t *testing.T) ([]*Specialized, *Pool) {
	t.Helper()
	fixed := map[string]float64{"T": 25, "VDD": 1.2}
	shapes := [][4]int{{2, 3, 1, 1}, {3, 2, 2, 1}, {1, 1, 1, 1}, {4, 4, 1, 2}}
	pool := NewPool()
	var kernels []*Specialized
	for i, sh := range shapes {
		s, err := poolTestModel(t, int64(100+i), sh).Specialize(fixed)
		if err != nil {
			t.Fatal(err)
		}
		id, err := pool.Add(s)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("kernel %d got pool ID %d", i, id)
		}
		kernels = append(kernels, s)
	}
	return kernels, pool
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

// TestPoolEvalOneBitIdentical pins the scalar pool entry point against
// Specialized.Eval bit for bit.
func TestPoolEvalOneBitIdentical(t *testing.T) {
	kernels, pool := poolTestKernels(t)
	pow := make([]float64, pool.ScratchLen())
	for ki, s := range kernels {
		for _, pt := range poolTestPoints() {
			want := s.Eval([]float64{pt[0], pt[1]})
			got := pool.EvalOne(int32(ki), pt[0], pt[1], pow)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("kernel %d at %v: pool %v vs specialized %v", ki, pt, got, want)
			}
		}
	}
}

// TestPoolEvalBatchBitIdentical runs the two-pass batched evaluation
// (PowLane per lane, then one SumBatch) at every lane count from a
// single lane through several BatchWidth rounds plus a tail, with the
// lanes cycling over distinct kernels, and checks each lane bit for bit
// against the scalar evaluation of that kernel alone.
func TestPoolEvalBatchBitIdentical(t *testing.T) {
	kernels, pool := poolTestKernels(t)
	pts := poolTestPoints()
	for n := 1; n <= 3*BatchWidth+3; n++ {
		ids := make([]int32, n)
		x := make([][2]float64, n)
		pow := make([]float64, n*pool.LaneLen())
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			ids[i] = int32((i * 7) % len(kernels))
			x[i] = pts[(i*5)%len(pts)]
			pool.PowLane(ids[i], x[i][0], x[i][1], pow[i*pool.LaneLen():])
		}
		pool.SumBatch(ids, pow, out)
		for i := 0; i < n; i++ {
			want := kernels[ids[i]].Eval(x[i][:])
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Errorf("n=%d lane %d (kernel %d): batch %v vs specialized %v", n, i, ids[i], out[i], want)
			}
		}
	}
}

// TestPoolAddRejectsNon2Var pins the pool's fixed lane shape: kernels
// with any free-variable count other than two are rejected.
func TestPoolAddRejectsNon2Var(t *testing.T) {
	m := poolTestModel(t, 7, [4]int{2, 2, 1, 1})
	for _, fixed := range []map[string]float64{
		{"VDD": 1.2},                         // 3 free variables
		{"T": 25, "VDD": 1.2, "Tin": 40e-12}, // 1 free variable
	} {
		s, err := m.Specialize(fixed)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := NewPool().Add(s); err == nil {
			t.Errorf("Add accepted a %d-variable kernel (ID %d)", len(s.Vars()), id)
		}
	}
}

// TestPoolEvalZeroAlloc is the static twin's runtime check: in steady
// state the production entry points — PowLane, SumBatch, EvalOne — must
// not allocate.
func TestPoolEvalZeroAlloc(t *testing.T) {
	kernels, pool := poolTestKernels(t)
	n := 2*BatchWidth + 3
	ids := make([]int32, n)
	pow := make([]float64, n*pool.LaneLen())
	one := make([]float64, pool.ScratchLen())
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = int32(i % len(kernels))
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

// TestPoolStats pins the bookkeeping the kernel-table stats surface.
func TestPoolStats(t *testing.T) {
	kernels, pool := poolTestKernels(t)
	if got, want := pool.NumKernels(), len(kernels); got != want {
		t.Errorf("NumKernels %d, want %d", got, want)
	}
	terms := 0
	for _, s := range kernels {
		terms += s.NumTerms()
	}
	if got := pool.NumTerms(); got != terms {
		t.Errorf("NumTerms %d, want %d", got, terms)
	}
	if pool.NumOps() == 0 {
		t.Error("NumOps is 0 for a dense kernel family")
	}
	if pool.MaxOrder() < 4 {
		t.Errorf("MaxOrder %d, want >= 4 (the {4,4} shape)", pool.MaxOrder())
	}
	if got, want := pool.ScratchLen(), BatchWidth*pool.LaneLen(); got != want {
		t.Errorf("ScratchLen %d, want %d", got, want)
	}
	if pool.LaneLen() <= 2*pool.MaxOrder() {
		t.Errorf("LaneLen %d cannot hold two order-%d power tables", pool.LaneLen(), pool.MaxOrder())
	}
}

// poolTestKernelsAt specializes the same model family as
// poolTestKernels at an arbitrary operating point.
func poolTestKernelsAt(t *testing.T, temp, vdd float64) []*Specialized {
	t.Helper()
	fixed := map[string]float64{"T": temp, "VDD": vdd}
	shapes := [][4]int{{2, 3, 1, 1}, {3, 2, 2, 1}, {1, 1, 1, 1}, {4, 4, 1, 2}}
	var kernels []*Specialized
	for i, sh := range shapes {
		s, err := poolTestModel(t, int64(100+i), sh).Specialize(fixed)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, s)
	}
	return kernels
}

// TestPoolRespecBatchBitIdentical pins the fused corner re-fold
// against an independent build: RespecBatch's pool must evaluate bit
// for bit like a pool Added from Model.Specialize at the same corner —
// interior, border and clamped corners, and re-folded again from a
// RespecBatch pool, the way a corner table bases on any cached table.
func TestPoolRespecBatchBitIdentical(t *testing.T) {
	base, pool := poolTestKernels(t)
	corners := [][2]float64{
		{125, 1.08}, // slow
		{-40, 1.32}, // fast
		{25, 1.2},   // the base point itself
		{200, 2.0},  // clamped outside the fitted range
	}
	pow := make([]float64, pool.ScratchLen())
	from := pool
	for _, c := range corners {
		fused, err := from.RespecBatch(base, map[string]float64{"T": c[0], "VDD": c[1]})
		if err != nil {
			t.Fatalf("RespecBatch at (%g, %g): %v", c[0], c[1], err)
		}
		fresh := NewPool()
		for _, s := range poolTestKernelsAt(t, c[0], c[1]) {
			if _, err := fresh.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		if fused.NumKernels() != fresh.NumKernels() || fused.NumTerms() != fresh.NumTerms() || fused.NumOps() != fresh.NumOps() {
			t.Fatalf("corner (%g, %g): shape %d/%d/%d, fresh build %d/%d/%d", c[0], c[1],
				fused.NumKernels(), fused.NumTerms(), fused.NumOps(), fresh.NumKernels(), fresh.NumTerms(), fresh.NumOps())
		}
		for ki := range base {
			for _, pt := range poolTestPoints() {
				got := fused.EvalOne(int32(ki), pt[0], pt[1], pow)
				want := fresh.EvalOne(int32(ki), pt[0], pt[1], pow)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("corner (%g, %g) kernel %d at %v: fused pool %v vs fresh build %v",
						c[0], c[1], ki, pt, got, want)
				}
			}
		}
		from = fused
	}
}

// TestPoolRespecBatchRejects pins the fused pass's sharing-contract
// checks: kernel-count mismatch, mismatched model families,
// non-2-variable kernels and a fixed set that does not cover the
// Specialize-time fixed variables are all rejected.
func TestPoolRespecBatchRejects(t *testing.T) {
	base, pool := poolTestKernels(t)
	fixed := map[string]float64{"T": 125, "VDD": 1.08}
	if _, err := pool.RespecBatch(base[:2], fixed); err == nil {
		t.Error("RespecBatch accepted a short kernel slice")
	}
	swapped := []*Specialized{base[1], base[0], base[2], base[3]}
	if _, err := pool.RespecBatch(swapped, fixed); err == nil {
		t.Error("RespecBatch accepted kernels in the wrong pool order")
	}
	bad, err := poolTestModel(t, 100, [4]int{2, 3, 1, 1}).Specialize(map[string]float64{"VDD": 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RespecBatch([]*Specialized{bad, base[1], base[2], base[3]}, fixed); err == nil {
		t.Error("RespecBatch accepted a 3-variable kernel")
	}
	if _, err := pool.RespecBatch(base, map[string]float64{"T": 125}); err == nil {
		t.Error("RespecBatch accepted an incomplete fixed set")
	}
	if _, err := pool.RespecBatch(base, map[string]float64{"T": 125, "Vdd": 1.08}); err == nil {
		t.Error("RespecBatch accepted a misnamed fixed variable")
	}
	fused, err := pool.RespecBatch(base, fixed)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := poolTestModel(t, 999, [4]int{2, 2, 1, 1}).Specialize(map[string]float64{"T": 25, "VDD": 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fused.Add(extra); err == nil {
		t.Error("Add on a RespecBatch pool succeeded; geometry aliasing would corrupt the base")
	}
	if _, err := pool.Add(extra); err != nil {
		t.Errorf("Add on the base pool after RespecBatch: %v", err)
	}
}
