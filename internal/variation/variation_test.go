package variation

import (
	"math"
	"strings"
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

// setup characterizes the T/VDD-swept library once per test binary
// and returns its technology.
func setup(t testing.TB) *tech.Tech {
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
	return varTc
}

// engine builds a fig4 engine over the T/VDD-swept library.
func engine(t testing.TB, opts core.Options) *core.Engine {
	t.Helper()
	tc := setup(t)
	cir, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	return core.New(cir, tc, varLib, opts)
}

// sweep runs fig4 through Engine.MultiCorner at the standard corners,
// resolved by Points.
func sweep(t *testing.T, workers int) *core.MultiCornerResult {
	t.Helper()
	e := engine(t, core.Options{Workers: workers})
	corners := StandardCorners()
	mc, err := e.MultiCorner(Points(setup(t), corners))
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Corners) != len(corners) {
		t.Fatalf("%d corner results, want %d", len(mc.Corners), len(corners))
	}
	return mc
}

// variantKey identifies a path variant across engines: the gate
// course, the launch edges, every traversed sensitization vector and
// the justified input cube.
func variantKey(p *core.TruePath) string {
	var b strings.Builder
	b.WriteString(p.CourseKey())
	b.WriteByte('|')
	if p.RiseOK {
		b.WriteByte('R')
	}
	if p.FallOK {
		b.WriteByte('F')
	}
	for _, arc := range p.Arcs {
		b.WriteString("|" + arc.Pin + ":" + arc.Vec.Key())
	}
	b.WriteByte('|')
	for _, n := range p.Cube.Names() {
		b.WriteString(n + "=" + p.Cube[n].String() + ",")
	}
	return b.String()
}

// byVariant indexes a result's paths by variantKey.
func byVariant(t *testing.T, label string, paths []*core.TruePath) map[string]*core.TruePath {
	t.Helper()
	m := make(map[string]*core.TruePath, len(paths))
	for _, p := range paths {
		k := variantKey(p)
		if _, dup := m[k]; dup {
			t.Fatalf("%s: variant %s recorded twice", label, k)
		}
		m[k] = p
	}
	return m
}

// assertSameDelays requires got to hold exactly want's path variants,
// each with bit-identical rise and fall delays.
func assertSameDelays(t *testing.T, label string, want, got []*core.TruePath) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", label, len(got), len(want))
	}
	gm := byVariant(t, label, got)
	for _, w := range want {
		g, ok := gm[variantKey(w)]
		if !ok {
			t.Fatalf("%s: variant %s missing", label, variantKey(w))
		}
		if math.Float64bits(g.RiseDelay) != math.Float64bits(w.RiseDelay) ||
			math.Float64bits(g.FallDelay) != math.Float64bits(w.FallDelay) {
			t.Errorf("%s: %s rise/fall %v/%v, want %v/%v", label, w, g.RiseDelay, g.FallDelay, w.RiseDelay, w.FallDelay)
		}
	}
}

// TestCornersOrdering sweeps the standard corners and requires every
// variant found at all three to be slower at slow than at typical and
// slower at typical than at fast, with a material slow-to-fast spread.
func TestCornersOrdering(t *testing.T) {
	mc := sweep(t, 0)
	worst := make([]map[string]float64, len(mc.Corners))
	for i, cr := range mc.Corners {
		worst[i] = make(map[string]float64, len(cr.Result.Paths))
		for _, p := range cr.Result.Paths {
			worst[i][variantKey(p)] = p.WorstDelay()
		}
	}
	compared := 0
	for k, slow := range worst[0] {
		typ, okT := worst[1][k]
		fast, okF := worst[2][k]
		if !okT || !okF {
			continue
		}
		compared++
		if !(slow > typ && typ > fast) {
			t.Errorf("%s: corner ordering violated: %g %g %g", k, slow, typ, fast)
		}
		// The slow/fast spread should be material (tens of percent).
		if (slow-fast)/typ < 0.10 {
			t.Errorf("%s: corner spread only %.1f%%", k, (slow-fast)/typ*100)
		}
	}
	if compared < 4 {
		t.Fatalf("only %d variants found at all three corners", compared)
	}
}

// TestCornerTypicalMatchesEngineDelay pins the typical corner to the
// engine's nominal operating point: the sweep's typical result scores
// every path bit for bit like a plain engine built with default
// options.
func TestCornerTypicalMatchesEngineDelay(t *testing.T) {
	mc := sweep(t, 0)
	nominal, err := engine(t, core.Options{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(nominal.Paths) < 4 {
		t.Fatalf("only %d paths", len(nominal.Paths))
	}
	assertSameDelays(t, "typical corner", nominal.Paths, mc.Corners[1].Result.Paths)
}

// TestCornersReplayMatchesFreshEngines pins the sweep's re-folded
// kernels: at every standard corner, the sweep reproduces, bit for
// bit, what a fresh engine searching at that corner records for every
// path variant, at one worker and at four. The polynomial model is the
// single source of truth at every operating point — the one build
// replayed at another point and a fresh build there may not drift.
func TestCornersReplayMatchesFreshEngines(t *testing.T) {
	tc := setup(t)
	corners := StandardCorners()
	fresh := make([][]*core.TruePath, len(corners))
	for ci, c := range corners {
		res, err := engine(t, core.Options{Temp: c.Temp, VDD: c.VDDRel * tc.VDD}).Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		fresh[ci] = res.Paths
	}
	for _, workers := range []int{1, 4} {
		mc := sweep(t, workers)
		for ci, c := range corners {
			assertSameDelays(t, c.Name, fresh[ci], mc.Corners[ci].Result.Paths)
		}
	}
}
