package variation

import (
	"math"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/tech"
)

var (
	varLib *charlib.Library
	varTc  *tech.Tech
)

// variationGrid sweeps temperature and supply on a reduced load/slew
// grid so tests stay fast.
func variationGrid() charlib.Grid {
	return charlib.Grid{
		Fo:     []float64{0.5, 2, 8},
		Tin:    []float64{20e-12, 80e-12, 250e-12},
		Temp:   []float64{-40, 25, 125},
		VDDRel: []float64{0.9, 1.0, 1.1},
	}
}

func setup(t testing.TB) (*Analyzer, []*core.TruePath) {
	t.Helper()
	if varLib == nil {
		tc, err := tech.ByName("130nm")
		if err != nil {
			t.Fatal(err)
		}
		varTc = tc
		lib, err := charlib.Characterize(tc, cell.Default(), variationGrid(), charlib.Options{
			Cells: []string{"INV", "BUF", "NAND2", "AND2", "OR2", "AO22"},
		})
		if err != nil {
			t.Fatal(err)
		}
		varLib = lib
	}
	cir, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(cir, varTc, varLib, core.Options{})
	res, err := eng.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) < 4 {
		t.Fatalf("only %d paths", len(res.Paths))
	}
	return New(cir, varTc, varLib), res.Paths[:6]
}

// cornerDelays evaluates every path at every corner through
// PathDelayAt under a constant environment (every gate at the corner's
// point), on the path's nominal-worst launch edge.
func cornerDelays(t *testing.T, a *Analyzer, paths []*core.TruePath, corners []Corner) [][]float64 {
	t.Helper()
	out := make([][]float64, len(paths))
	for i, p := range paths {
		for _, c := range corners {
			temp, vdd := c.Temp, c.VDDRel*a.Tech.VDD
			d, err := a.PathDelayAt(p, launchEdge(p), func(int) (float64, float64) { return temp, vdd })
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], d)
		}
	}
	return out
}

func TestCornersOrdering(t *testing.T) {
	a, paths := setup(t)
	for i, r := range cornerDelays(t, a, paths, StandardCorners()) {
		slow, typ, fast := r[0], r[1], r[2]
		if !(slow > typ && typ > fast) {
			t.Errorf("%s: corner ordering violated: %g %g %g", paths[i], slow, typ, fast)
		}
		// The slow/fast spread should be material (tens of percent).
		if (slow-fast)/typ < 0.10 {
			t.Errorf("%s: corner spread only %.1f%%", paths[i], (slow-fast)/typ*100)
		}
	}
}

func TestCornerTypicalMatchesEngineDelay(t *testing.T) {
	a, paths := setup(t)
	p := paths[0]
	want := p.RiseDelay
	if p.FallOK && (!p.RiseOK || p.FallDelay > p.RiseDelay) {
		want = p.FallDelay
	}
	if got := cornerDelays(t, a, paths[:1], []Corner{{"typ", 25, 1.0}})[0][0]; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("typical corner %g != engine nominal %g", got, want)
	}
}

// variantKey identifies a path variant across engines: the gate
// course, the launch edges, and every traversed sensitization vector.
func variantKey(p *core.TruePath) string {
	k := p.CourseKey() + "|"
	if p.RiseOK {
		k += "R"
	}
	if p.FallOK {
		k += "F"
	}
	for _, arc := range p.Arcs {
		k += "|" + arc.Pin + ":" + arc.Vec.Key()
	}
	return k
}

// TestCornersReplayMatchesFreshEngines pins PathDelayAt, the Monte
// Carlo primitive: chained over a nominal path under a constant
// environment, it reproduces, bit for bit, what a fresh engine
// searching at that corner records for the same path variant. The
// polynomial model is the single source of truth at every operating
// point — replay and search may not drift.
func TestCornersReplayMatchesFreshEngines(t *testing.T) {
	a, paths := setup(t)
	corners := StandardCorners()
	rows := cornerDelays(t, a, paths, corners)
	for ci, c := range corners {
		eng := core.New(a.Circuit, varTc, varLib, core.Options{Temp: c.Temp, VDD: c.VDDRel * varTc.VDD})
		res, err := eng.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		fresh := map[string]*core.TruePath{}
		for _, p := range res.Paths {
			fresh[variantKey(p)] = p
		}
		for i, p := range paths {
			fp, ok := fresh[variantKey(p)]
			if !ok {
				t.Fatalf("%s: variant %s missing from the fresh %s run", p, variantKey(p), c.Name)
			}
			want := fp.RiseDelay
			if !launchEdge(p) {
				want = fp.FallDelay
			}
			if got := rows[i][ci]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s at %s: replay %v != fresh engine %v", p, c.Name, got, want)
			}
		}
	}
}

func TestMonteCarloStats(t *testing.T) {
	a, paths := setup(t)
	res, err := a.MonteCarlo(paths, MCOptions{Samples: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 400 || len(res.Stats) != len(paths) {
		t.Fatalf("result shape: %d samples, %d stats", res.Samples, len(res.Stats))
	}
	totalCrit := 0.0
	for _, st := range res.Stats {
		if st.Std <= 0 {
			t.Errorf("%s: zero spread", st.Path)
		}
		if st.P95 < st.Mean || st.P99 < st.P95 {
			t.Errorf("%s: quantiles out of order: mean %g p95 %g p99 %g", st.Path, st.Mean, st.P95, st.P99)
		}
		totalCrit += st.Criticality
	}
	if math.Abs(totalCrit-1) > 1e-9 {
		t.Errorf("criticalities sum to %g", totalCrit)
	}
	// Stats sorted by mean descending.
	for i := 1; i < len(res.Stats); i++ {
		if res.Stats[i].Mean > res.Stats[i-1].Mean {
			t.Error("stats not sorted")
		}
	}
}

func TestMonteCarloDeterministicAndSeedSensitive(t *testing.T) {
	a, paths := setup(t)
	r1, err := a.MonteCarlo(paths, MCOptions{Samples: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.MonteCarlo(paths, MCOptions{Samples: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// stalint:ignore floatcmp identical seeds must reproduce bit-identical statistics
	if r1.Stats[0].Mean != r2.Stats[0].Mean || r1.RankFlips != r2.RankFlips {
		t.Error("same seed should reproduce")
	}
	r3, err := a.MonteCarlo(paths, MCOptions{Samples: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// stalint:ignore floatcmp distinct seeds colliding bit-exactly would be a PRNG bug
	if r1.Stats[0].Mean == r3.Stats[0].Mean {
		t.Error("different seed should differ")
	}
}

func TestMonteCarloErrors(t *testing.T) {
	a, _ := setup(t)
	if _, err := a.MonteCarlo(nil, MCOptions{}); err == nil {
		t.Error("no paths should fail")
	}
}

func TestPathDelayAtPerGateEnv(t *testing.T) {
	a, paths := setup(t)
	p := paths[0]
	// Hotter on every gate must be slower than nominal.
	dNom, err := a.PathDelayAt(p, launchEdge(p), func(int) (float64, float64) { return 25, varTc.VDD })
	if err != nil {
		t.Fatal(err)
	}
	dHot, err := a.PathDelayAt(p, launchEdge(p), func(int) (float64, float64) { return 125, varTc.VDD })
	if err != nil {
		t.Fatal(err)
	}
	if dHot <= dNom {
		t.Errorf("hot %g should exceed nominal %g", dHot, dNom)
	}
	// Heating only one gate sits strictly between.
	dOne, err := a.PathDelayAt(p, launchEdge(p), func(i int) (float64, float64) {
		if i == 0 {
			return 125, varTc.VDD
		}
		return 25, varTc.VDD
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(dOne > dNom && dOne < dHot) {
		t.Errorf("single-gate heating %g not between %g and %g", dOne, dNom, dHot)
	}
}

func BenchmarkMonteCarlo(b *testing.B) {
	a, paths := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MonteCarlo(paths, MCOptions{Samples: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
