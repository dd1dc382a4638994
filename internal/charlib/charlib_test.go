package charlib

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/spice"
	"tpsta/internal/tech"
)

// charSmall characterizes a small cell subset on the test grid, shared
// across tests (characterization is the expensive step).
var charCache = map[string]*Library{}

func charSmall(t *testing.T, techName string, cells ...string) *Library {
	t.Helper()
	key := techName + ":" + stringsJoin(cells)
	if l, ok := charCache[key]; ok {
		return l
	}
	tc, err := tech.ByName(techName)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Characterize(tc, cell.Default(), TestGrid(), Options{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	charCache[key] = l
	return l
}

func stringsJoin(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + ","
	}
	return out
}

func TestKeys(t *testing.T) {
	if PolyKey("AO22", "A", "B=1,C=0,D=0", true) != "AO22/A/B=1,C=0,D=0/R" {
		t.Error("PolyKey format")
	}
	if LUTKey("INV", "A", false) != "INV/A/F" {
		t.Error("LUTKey format")
	}
}

func TestGridValidate(t *testing.T) {
	tc, _ := tech.ByName("130nm")
	bad := Grid{Fo: []float64{1}, Tin: []float64{1e-12, 2e-12}, Temp: []float64{25}, VDDRel: []float64{1}}
	if _, err := Characterize(tc, cell.Default(), bad, Options{Cells: []string{"INV"}}); err == nil {
		t.Error("single-point Fo axis should be rejected")
	}
	noNom := TestGrid()
	noNom.Temp = []float64{85}
	if _, err := Characterize(tc, cell.Default(), noNom, Options{Cells: []string{"INV"}}); err == nil {
		t.Error("grid without nominal corner should be rejected")
	}
	if _, err := Characterize(tc, cell.Default(), TestGrid(), Options{Cells: []string{"NOPE"}}); err == nil {
		t.Error("unknown cell should be rejected")
	}
}

func TestCharacterizeINV(t *testing.T) {
	l := charSmall(t, "130nm", "INV")
	// 1 pin × 1 vector × 2 edges.
	if len(l.Poly) != 2 {
		t.Fatalf("%d poly arcs, want 2", len(l.Poly))
	}
	if len(l.LUT) != 2 {
		t.Fatalf("%d lut arcs, want 2", len(l.LUT))
	}
	if l.TechName != "130nm" {
		t.Errorf("tech %s", l.TechName)
	}
	// Model evaluation near a characterized point must match a direct
	// simulation closely.
	tc, _ := tech.ByName("130nm")
	inv := cell.Default().MustGet("INV")
	vec := inv.Vectors("A")[0]
	cin := l.CinRef["INV"]
	sim, err := spice.New(tc).SimulateGate(inv, vec, true, 80e-12, 2*cin)
	if err != nil {
		t.Fatal(err)
	}
	d, s, err := l.GateDelay("INV", "A", vec.Key(), true, 2, 80e-12, 25, tc.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(d-sim.Delay) / sim.Delay; rel > 0.03 {
		t.Errorf("poly delay off by %.1f%%", rel*100)
	}
	if rel := math.Abs(s-sim.OutputSlew) / sim.OutputSlew; rel > 0.10 {
		t.Errorf("poly slew off by %.1f%%", rel*100)
	}
	// LUT at one of its (thinned) grid points is near-exact: the test
	// grid Fo axis {0.5,2,8,16} thins to {0.5,8,16} and the slew axis
	// {20,80,250 ps} to {20,250 ps}.
	simLUT, err := spice.New(tc).SimulateGate(inv, vec, true, 250e-12, 8*cin)
	if err != nil {
		t.Fatal(err)
	}
	ld, _, err := l.LUTDelay("INV", "A", true, 8*cin, 250e-12)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ld-simLUT.Delay) / simLUT.Delay; rel > 0.02 {
		t.Errorf("lut delay off by %.1f%%", rel*100)
	}
	// Off its sparse grid the LUT interpolates with visible error, while
	// the polynomial (fitted on the full sweep) stays close — the model
	// contrast of Tables 7–9.
	lutOff, _, err := l.LUTDelay("INV", "A", true, 2*cin, 80e-12)
	if err != nil {
		t.Fatal(err)
	}
	lutErr := math.Abs(lutOff-sim.Delay) / sim.Delay
	polyErr := math.Abs(d-sim.Delay) / sim.Delay
	if lutErr <= polyErr {
		t.Errorf("expected LUT off-grid error (%.2f%%) above polynomial error (%.2f%%)", lutErr*100, polyErr*100)
	}
}

func TestCharacterizeComplexGateVectors(t *testing.T) {
	l := charSmall(t, "130nm", "OA12")
	// OA12: A(1) + B(1) + C(3) vectors × 2 edges = 10 poly arcs; LUT arcs:
	// 3 pins × 2 edges = 6 (Case 1 only).
	if len(l.Poly) != 10 {
		t.Errorf("%d poly arcs, want 10", len(l.Poly))
	}
	if len(l.LUT) != 6 {
		t.Errorf("%d lut arcs, want 6", len(l.LUT))
	}
	// The polynomial model preserves the vector dependence: Case 1 delay
	// above Case 3 for rising C (Table 4 ordering).
	oa12 := cell.Default().MustGet("OA12")
	vecs := oa12.Vectors("C")
	tc, _ := tech.ByName("130nm")
	d1, _, err := l.GateDelay("OA12", "C", vecs[0].Key(), true, 1, 40e-12, 25, tc.VDD)
	if err != nil {
		t.Fatal(err)
	}
	d3, _, err := l.GateDelay("OA12", "C", vecs[2].Key(), true, 1, 40e-12, 25, tc.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if !(d3 < d1) {
		t.Errorf("vector dependence lost in model: case1=%g case3=%g", d1, d3)
	}
	// The LUT cannot distinguish vectors: a single number per pin/edge.
	lu1, _, _ := l.LUTDelay("OA12", "C", true, l.CinRef["OA12"], 40e-12)
	if lu1 <= 0 {
		t.Error("lut lookup failed")
	}
}

func TestFitQuality(t *testing.T) {
	l := charSmall(t, "130nm", "INV", "NAND2", "OA12")
	key, worst := l.WorstFitErr()
	if worst > 0.05 {
		t.Errorf("worst fit error %.2f%% at %s", worst*100, key)
	}
	for _, k := range l.ArcKeys() {
		if l.Poly[k].FitErr < 0 {
			t.Errorf("negative fit error at %s", k)
		}
	}
}

func TestFoAndInputCap(t *testing.T) {
	l := charSmall(t, "130nm", "INV")
	cin, err := l.InputCap("INV", "A")
	if err != nil || cin <= 0 {
		t.Fatalf("InputCap: %v %v", cin, err)
	}
	fo, err := l.Fo("INV", 3*cin)
	if err != nil || math.Abs(fo-3) > 1e-9 {
		t.Errorf("Fo = %v, %v", fo, err)
	}
	if _, err := l.Fo("NAND9", 1); err == nil {
		t.Error("unknown cell Fo should fail")
	}
	if _, err := l.InputCap("INV", "Q"); err == nil {
		t.Error("unknown pin should fail")
	}
}

func TestQueryErrors(t *testing.T) {
	l := charSmall(t, "130nm", "INV")
	if _, _, err := l.GateDelay("INV", "A", "bogus", true, 1, 1e-12, 25, 1.2); err == nil {
		t.Error("unknown vector key should fail")
	}
	if _, _, err := l.LUTDelay("NAND2", "A", true, 1e-15, 1e-12); err == nil {
		t.Error("uncharacterized cell should fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := charSmall(t, "130nm", "INV", "OA12")
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l2.TechName != l.TechName || len(l2.Poly) != len(l.Poly) || len(l2.LUT) != len(l.LUT) {
		t.Fatal("round trip lost data")
	}
	// Evaluation identical after round trip.
	tc, _ := tech.ByName("130nm")
	vec := cell.Default().MustGet("OA12").Vectors("C")[1]
	d1, s1, err := l.GateDelay("OA12", "C", vec.Key(), false, 2, 50e-12, 25, tc.VDD)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, err := l2.GateDelay("OA12", "C", vec.Key(), false, 2, 50e-12, 25, tc.VDD)
	if err != nil {
		t.Fatal(err)
	}
	// stalint:ignore floatcmp save/load round trip must preserve evaluation bit-exactly
	if d1 != d2 || s1 != s2 {
		t.Errorf("eval changed after round trip: %g/%g vs %g/%g", d1, s1, d2, s2)
	}
	// Loading garbage fails.
	if _, err := Load(bytes.NewBufferString("{}")); err == nil {
		t.Error("empty library should fail to load")
	}
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("non-JSON should fail to load")
	}
}

// TestLoadRejectsMalformed corrupts one arc of a saved library at a
// time: Load must fail and name the arc. Each of these loaded silently
// before Load validated, and then panicked at the first delay query or
// (a truncated coefficient vector) timed the arc wrongly.
func TestLoadRejectsMalformed(t *testing.T) {
	l := charSmall(t, "130nm", "INV")
	var saved bytes.Buffer
	if err := l.Save(&saved); err != nil {
		t.Fatal(err)
	}
	poly := PolyKey("INV", "A", cell.Default().MustGet("INV").Vectors("A")[0].Key(), true)
	lutKey := LUTKey("INV", "A", false)
	for _, tc := range []struct {
		name    string
		corrupt func(l *Library)
		want    string
	}{
		{"lo cut", func(l *Library) { m := l.Poly[poly].Delay; m.Lo = m.Lo[:3] }, poly},
		{"scale cut", func(l *Library) { m := l.Poly[poly].Slew; m.Scale = m.Scale[:3] }, poly},
		{"orders cut", func(l *Library) { m := l.Poly[poly].Delay; m.Orders = m.Orders[:3] }, poly},
		{"vars cut", func(l *Library) { m := l.Poly[poly].Delay; m.Vars = m.Vars[:3] }, poly},
		{"vars reordered", func(l *Library) {
			m := l.Poly[poly].Delay
			m.Vars = []string{"Tin", "Fo", "T", "VDD"}
		}, poly},
		{"negative order", func(l *Library) { l.Poly[poly].Delay.Orders[1] = -1 }, poly},
		{"coef cut", func(l *Library) { m := l.Poly[poly].Delay; m.Coef = m.Coef[:2] }, poly},
		{"coef extra", func(l *Library) { m := l.Poly[poly].Slew; m.Coef = append(m.Coef, 1) }, poly},
		{"slew model missing", func(l *Library) { l.Poly[poly].Slew = nil }, poly},
		{"lut row cut", func(l *Library) { a := l.LUT[lutKey].Delay; a.Values = a.Values[:1] }, lutKey},
		{"lut axis unsorted", func(l *Library) {
			a := l.LUT[lutKey].Slew
			a.Slews[0], a.Slews[1] = a.Slews[1], a.Slews[0]
		}, lutKey},
		{"cinref zero", func(l *Library) { l.CinRef["INV"] = 0 }, "cell INV"},
		{"cinref negative", func(l *Library) { l.CinRef["INV"] = -1e-15 }, "cell INV"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := Load(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(bad)
			var buf bytes.Buffer
			if err := bad.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err = Load(&buf)
			if err == nil {
				t.Fatal("malformed library loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestStringSummary(t *testing.T) {
	l := charSmall(t, "130nm", "INV")
	if s := l.String(); s == "" {
		t.Error("empty summary")
	}
}

// The paper argues the analytical model evaluates faster than LUT
// interpolation; these benchmarks measure both query paths.
func BenchmarkPolyGateDelay(b *testing.B) {
	l := benchLib(b)
	tc, _ := tech.ByName("130nm")
	vec := cell.Default().MustGet("OA12").Vectors("C")[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.GateDelay("OA12", "C", vec.Key(), true, 2.3, 47e-12, 25, tc.VDD); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUTGateDelay(b *testing.B) {
	l := benchLib(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.LUTDelay("OA12", "C", true, 2.3e-15, 47e-12); err != nil {
			b.Fatal(err)
		}
	}
}

var benchLibCache *Library

func benchLib(b *testing.B) *Library {
	b.Helper()
	if benchLibCache != nil {
		return benchLibCache
	}
	tc, _ := tech.ByName("130nm")
	l, err := Characterize(tc, cell.Default(), TestGrid(), Options{Cells: []string{"OA12"}})
	if err != nil {
		b.Fatal(err)
	}
	benchLibCache = l
	return l
}
