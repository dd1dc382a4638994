package spice

import (
	"math"
	"strings"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

func t130(t testing.TB) *tech.Tech {
	t.Helper()
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestWaveformAtAndCross(t *testing.T) {
	w := Waveform{Times: []float64{0, 1, 3}, Volts: []float64{0, 2, 2}}
	cases := []struct{ t, v float64 }{
		{-1, 0}, {0, 0}, {0.5, 1}, {1, 2}, {2, 2}, {5, 2},
	}
	for _, c := range cases {
		if got := w.At(c.t); math.Abs(got-c.v) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.v)
		}
	}
	if ct, ok := w.Cross(1, true); !ok || math.Abs(ct-0.5) > 1e-12 {
		t.Errorf("Cross(1,rising) = %v, %v", ct, ok)
	}
	if _, ok := w.Cross(1, false); ok {
		t.Error("no falling crossing expected")
	}
	if _, ok := w.Cross(3, true); ok {
		t.Error("crossing above range should fail")
	}
}

func TestRampAndSlew(t *testing.T) {
	vdd := 1.2
	w := Ramp(10e-12, 80e-12, vdd, true)
	// 10-90% slew of a linear full ramp of duration 100ps is 80ps.
	slew, ok := w.Slew(vdd, true)
	if !ok || math.Abs(slew-80e-12) > 1e-15 {
		t.Errorf("rising slew = %v, %v", slew, ok)
	}
	fall := Ramp(0, 40e-12, vdd, false)
	slew, ok = fall.Slew(vdd, false)
	if !ok || math.Abs(slew-40e-12) > 1e-15 {
		t.Errorf("falling slew = %v, %v", slew, ok)
	}
	if v := fall.At(0); !num.Eq(v, vdd) {
		t.Errorf("falling ramp starts at %v", v)
	}
	if f := Flat(0.5); !num.Eq(f.At(123), 0.5) || !num.Eq(f.Final(), 0.5) {
		t.Error("Flat broken")
	}
}

func TestWaveformValidate(t *testing.T) {
	bad := Waveform{Times: []float64{0, 0}, Volts: []float64{0, 1}}
	if bad.validate() == nil {
		t.Error("non-increasing times should fail validation")
	}
	mismatch := Waveform{Times: []float64{0}, Volts: []float64{0, 1}}
	if mismatch.validate() == nil {
		t.Error("length mismatch should fail validation")
	}
}

func TestSolveLinear(t *testing.T) {
	G := [][]float64{{2, 1}, {1, 3}}
	I := []float64{5, 10}
	x := make([]float64, 2)
	if err := solveLinear(G, I, x); err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v", x)
	}
	if err := solveLinear([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}, x); err == nil {
		t.Error("singular matrix should fail")
	}
	// Needs pivoting: zero on the diagonal.
	G2 := [][]float64{{0, 1}, {1, 0}}
	I2 := []float64{2, 3}
	err := solveLinear(G2, I2, x)
	if err != nil || math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("pivoting solve = %v, %v", x, err)
	}
}

func TestInverterDelayBasics(t *testing.T) {
	tc := t130(t)
	s := New(tc)
	inv := cell.Default().MustGet("INV")
	vec := inv.Vectors("A")[0]
	load := 4 * inv.InputCap(tc, "A")
	r, err := s.SimulateGate(inv, vec, true, 40e-12, load)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OutputRising == false {
		t.Error("rising input to INV gives falling output")
	}
	if r.Delay < 1e-12 || r.Delay > 500e-12 {
		t.Errorf("INV FO4-ish delay out of range: %g", r.Delay)
	}
	if r.OutputSlew <= 0 {
		t.Errorf("non-positive slew %g", r.OutputSlew)
	}
	// More load → more delay.
	r2, err := s.SimulateGate(inv, vec, true, 40e-12, 3*load)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Delay <= r.Delay {
		t.Errorf("delay should grow with load: %g vs %g", r2.Delay, r.Delay)
	}
	// Slower input → more delay.
	r3, err := s.SimulateGate(inv, vec, true, 160e-12, load)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Delay <= r.Delay {
		t.Errorf("delay should grow with input slew: %g vs %g", r3.Delay, r.Delay)
	}
}

func TestEnvironmentalTrends(t *testing.T) {
	tc := t130(t)
	inv := cell.Default().MustGet("INV")
	vec := inv.Vectors("A")[0]
	load := 4 * inv.InputCap(tc, "A")
	base, err := New(tc).SimulateGate(inv, vec, false, 40e-12, load)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := NewAt(tc, 125, 0).SimulateGate(inv, vec, false, 40e-12, load)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Delay <= base.Delay {
		t.Errorf("hotter should be slower: %g vs %g", hot.Delay, base.Delay)
	}
	lowV, err := NewAt(tc, 25, 0.9*tc.VDD).SimulateGate(inv, vec, false, 40e-12, load)
	if err != nil {
		t.Fatal(err)
	}
	if lowV.Delay <= base.Delay {
		t.Errorf("lower VDD should be slower: %g vs %g", lowV.Delay, base.Delay)
	}
}

// gateDelays runs all vectors of (cell, pin) and returns delays indexed by
// Case, for the given input edge.
func gateDelays(t *testing.T, tc *tech.Tech, cellName, pin string, rising bool) []float64 {
	t.Helper()
	c := cell.Default().MustGet(cellName)
	s := New(tc)
	load := c.InputCap(tc, pin) // loaded with a gate of the same type
	var out []float64
	for _, vec := range c.Vectors(pin) {
		r, err := s.SimulateGate(c, vec, rising, 40e-12, load)
		if err != nil {
			t.Fatalf("%s %s case %d: %v", cellName, pin, vec.Case, err)
		}
		out = append(out, r.Delay)
	}
	return out
}

// TestTable3AO22FallOrdering reproduces the headline result of paper
// Table 3: for a falling transition through input A of AO22, Case 1
// (C=0,D=0: both top pMOS on) is fastest, Case 2 (C=1: extra internal
// charge path) is slowest, Case 3 in between — across all technologies.
func TestTable3AO22FallOrdering(t *testing.T) {
	for _, tc := range tech.All() {
		d := gateDelays(t, tc, "AO22", "A", false)
		if len(d) != 3 {
			t.Fatalf("%s: %d cases", tc.Name, len(d))
		}
		if !(d[0] < d[2] && d[2] < d[1]) {
			t.Errorf("%s: AO22 fall ordering want c1<c3<c2, got %.2f %.2f %.2f ps",
				tc.Name, d[0]*1e12, d[1]*1e12, d[2]*1e12)
		}
		// The delta must be material (several percent), as in the paper.
		delta := (d[1] - d[0]) / d[0]
		if delta < 0.03 {
			t.Errorf("%s: AO22 fall delta only %.1f%%", tc.Name, delta*100)
		}
		if delta > 0.35 {
			t.Errorf("%s: AO22 fall delta implausibly large %.1f%%", tc.Name, delta*100)
		}
	}
}

// TestTable4OA12RiseOrdering reproduces paper Table 4: for a rising
// transition through input C of OA12, Case 1 (A=1,B=0) is slowest and
// Case 3 (A=1,B=1: both bottom nMOS on) fastest.
func TestTable4OA12RiseOrdering(t *testing.T) {
	for _, tc := range tech.All() {
		d := gateDelays(t, tc, "OA12", "C", true)
		if len(d) != 3 {
			t.Fatalf("%s: %d cases", tc.Name, len(d))
		}
		if !(d[2] < d[0]) || !(d[1] < d[0]) {
			t.Errorf("%s: OA12 rise ordering want c3,c2 < c1, got %.2f %.2f %.2f ps",
				tc.Name, d[0]*1e12, d[1]*1e12, d[2]*1e12)
		}
		delta := (d[0] - d[2]) / d[0]
		if delta < 0.03 || delta > 0.35 {
			t.Errorf("%s: OA12 rise delta %.1f%% outside plausible band", tc.Name, delta*100)
		}
	}
}

func TestPathSimulation(t *testing.T) {
	tc := t130(t)
	lib := cell.Default()
	s := New(tc)
	inv := lib.MustGet("INV")
	nand := lib.MustGet("NAND2")
	// INV → NAND2(A) → INV chain.
	stages := []PathStage{
		{Cell: inv, Vec: inv.Vectors("A")[0], Load: nand.InputCap(tc, "A")},
		{Cell: nand, Vec: nand.Vectors("A")[0], Load: inv.InputCap(tc, "A")},
		{Cell: inv, Vec: inv.Vectors("A")[0], Load: 2 * inv.InputCap(tc, "A")},
	}
	r, err := s.SimulatePath(stages, true, 40e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StageDelays) != 3 {
		t.Fatalf("stage count %d", len(r.StageDelays))
	}
	sum := 0.0
	for i, d := range r.StageDelays {
		if d <= 0 {
			t.Errorf("stage %d delay %g", i, d)
		}
		sum += d
	}
	if math.Abs(sum-r.Total) > 1e-15 {
		t.Errorf("Total %g != sum %g", r.Total, sum)
	}
	// rising → falling → rising → falling.
	if r.FinalRising {
		t.Error("three inverting stages flip the edge")
	}
	if _, err := s.SimulatePath(nil, true, 40e-12); err == nil {
		t.Error("empty path should fail")
	}
}

func TestSimulateGateErrors(t *testing.T) {
	tc := t130(t)
	s := New(tc)
	ao22 := cell.Default().MustGet("AO22")
	// A non-sensitizing vector must be rejected.
	bad := cell.Vector{Pin: "A", Side: map[string]bool{"B": false, "C": false, "D": false}}
	if _, err := s.SimulateGate(ao22, bad, true, 40e-12, 1e-15); err == nil {
		t.Error("non-sensitizing vector accepted")
	}
	// A vector leaving a side pin unassigned must be rejected.
	incomplete := cell.Vector{Pin: "A", Side: map[string]bool{"B": true}}
	if _, err := s.SimulateGate(ao22, incomplete, true, 40e-12, 1e-15); err == nil {
		t.Error("incomplete vector accepted")
	}
}

func TestStateReportFig2(t *testing.T) {
	// Paper Fig. 2a: AO22, falling A, Case 1 (B=1, C=0, D=0).
	ao22 := cell.Default().MustGet("AO22")
	vec := ao22.Vectors("A")[0]
	reps, err := StateReport(ao22, vec, false)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]DeviceState{}
	for _, r := range reps {
		pol := "p"
		if r.Device.NMOS {
			pol = "n"
		}
		// First matching device per (polarity, gate) is enough here: the
		// core has exactly one device per polarity per pin.
		key := pol + r.Device.Gate
		if _, seen := byKey[key]; !seen {
			byKey[key] = r.State
		}
	}
	// A falls: pA turns on, nA turns off.
	if byKey["pA"] != StateTurnsOn {
		t.Errorf("pA = %s, want OFF→ON", byKey["pA"])
	}
	if byKey["nA"] != StateTurnsOff {
		t.Errorf("nA = %s, want ON→OFF", byKey["nA"])
	}
	// B=1: nB on, pB off. C=D=0: pC,pD on, nC,nD off (Fig. 2a: both top
	// parallel pMOS conduct — the fastest case).
	if byKey["nB"] != StateOn || byKey["pB"] != StateOff {
		t.Errorf("B devices: n=%s p=%s", byKey["nB"], byKey["pB"])
	}
	for _, g := range []string{"C", "D"} {
		if byKey["p"+g] != StateOn {
			t.Errorf("p%s = %s, want ON", g, byKey["p"+g])
		}
		if byKey["n"+g] != StateOff {
			t.Errorf("n%s = %s, want OFF", g, byKey["n"+g])
		}
	}
	// Case 2 (C=1,D=0): only pD on, and nC creates the internal charge
	// path the paper blames for the extra delay.
	vec2 := ao22.Vectors("A")[1]
	reps2, err := StateReport(ao22, vec2, false)
	if err != nil {
		t.Fatal(err)
	}
	on := map[string]bool{}
	for _, r := range reps2 {
		pol := "p"
		if r.Device.NMOS {
			pol = "n"
		}
		if r.State == StateOn {
			on[pol+r.Device.Gate] = true
		}
	}
	if on["pC"] || !on["pD"] || !on["nC"] {
		t.Errorf("case 2 states wrong: %v", on)
	}
	// The formatted report mentions every device state.
	txt, err := FormatStateReport(ao22, vec, false)
	if err != nil || len(txt) == 0 {
		t.Fatalf("FormatStateReport: %v", err)
	}
}

func TestOnPathResistanceFactor(t *testing.T) {
	ao22 := cell.Default().MustGet("AO22")
	// Falling A: charging through pA in series with the C/D pair. Case 1
	// has both pC and pD on (factor 2); cases 2 and 3 only one (factor 1).
	wants := []int{2, 1, 1}
	for i, vec := range ao22.Vectors("A") {
		got, err := OnPathResistanceFactor(ao22, vec, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != wants[i] {
			t.Errorf("case %d factor = %d, want %d", i+1, got, wants[i])
		}
	}
}

func TestDCSolveOperatingPoint(t *testing.T) {
	tc := t130(t)
	inv := cell.Default().MustGet("INV")
	nw, err := buildNetwork(inv, tc, 25, tc.VDD, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Input low → output high.
	v, converged, err := nw.dcSolve([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Error("input-low operating point did not converge")
	}
	if math.Abs(v[nw.zIdx]-tc.VDD) > 0.01*tc.VDD {
		t.Errorf("Z = %g, want ~VDD", v[nw.zIdx])
	}
	// Input high → output low.
	v, converged, err = nw.dcSolve([]float64{tc.VDD})
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Error("input-high operating point did not converge")
	}
	if math.Abs(v[nw.zIdx]) > 0.01*tc.VDD {
		t.Errorf("Z = %g, want ~0", v[nw.zIdx])
	}
}

func TestAllComplexCellsSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tc := t130(t)
	s := New(tc)
	for _, c := range cell.Default().ComplexCells() {
		for _, pin := range c.MultiVectorPins() {
			for _, vec := range c.Vectors(pin) {
				r, err := s.SimulateGate(c, vec, true, 40e-12, c.InputCap(tc, pin))
				if err != nil {
					t.Errorf("%s/%s case %d: %v", c.Name, pin, vec.Case, err)
					continue
				}
				if r.Delay <= 0 || r.Delay > 1e-9 {
					t.Errorf("%s/%s case %d: delay %g out of range", c.Name, pin, vec.Case, r.Delay)
				}
			}
		}
	}
}

func TestSlewBetweenConvention(t *testing.T) {
	// Linear ramp: the 20-80% window is exactly 0.6/0.8 of the 10-90%.
	w := Ramp(0, 80e-12, 1.2, true)
	s1090, ok1 := w.Slew(1.2, true)
	s2080, ok2 := w.SlewBetween(1.2, 0.2, 0.8, true)
	if !ok1 || !ok2 {
		t.Fatal("crossings missing")
	}
	if math.Abs(s2080/s1090-0.75) > 1e-9 {
		t.Errorf("20-80/10-90 ratio = %v, want 0.75 on a linear ramp", s2080/s1090)
	}
}

func TestOutputSlewConventionGap(t *testing.T) {
	// Real (exponential-tailed) gate outputs: the scaled 20-80% figure
	// systematically underestimates the 10-90% one — the correlation gap
	// the baseline LUT inherits.
	tc := t130(t)
	inv := cell.Default().MustGet("INV")
	vec := inv.Vectors("A")[0]
	r, err := New(tc).SimulateGate(inv, vec, true, 40e-12, 4*inv.InputCap(tc, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if r.OutputSlew2080 <= 0 {
		t.Fatal("no 20-80 slew measured")
	}
	if r.OutputSlew2080 >= r.OutputSlew {
		t.Errorf("scaled 20-80 slew (%g) should undershoot the 10-90 one (%g)",
			r.OutputSlew2080, r.OutputSlew)
	}
	// But not absurdly: within 40%.
	if r.OutputSlew2080 < 0.6*r.OutputSlew {
		t.Errorf("convention gap implausibly large: %g vs %g", r.OutputSlew2080, r.OutputSlew)
	}
}

func BenchmarkSimulateGateINV(b *testing.B) {
	tc := t130(b)
	inv := cell.Default().MustGet("INV")
	vec := inv.Vectors("A")[0]
	load := 4 * inv.InputCap(tc, "A")
	s := New(tc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SimulateGate(inv, vec, true, 40e-12, load); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateGateAO22(b *testing.B) {
	tc := t130(b)
	ao22 := cell.Default().MustGet("AO22")
	vec := ao22.Vectors("A")[1]
	load := ao22.InputCap(tc, "A")
	s := New(tc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SimulateGate(ao22, vec, false, 40e-12, load); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSimulateGateExtremes(t *testing.T) {
	tc := t130(t)
	s := New(tc)
	inv := cell.Default().MustGet("INV")
	vec := inv.Vectors("A")[0]
	// Zero external load: only self-loading, still settles.
	r0, err := s.SimulateGate(inv, vec, true, 40e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Delay <= 0 {
		t.Error("zero-load delay should be positive")
	}
	// A very slow input still settles; the 50-50 delay may legitimately
	// go small or negative (the gate switches at its input threshold well
	// before the slow ramp's midpoint), but the measurement must stay in
	// a sane band and the output slew must track the input.
	rSlow, err := s.SimulateGate(inv, vec, true, 2e-9, 4*inv.InputCap(tc, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.Delay < -2e-9 || rSlow.Delay > 2e-9 {
		t.Errorf("slow-input delay %g out of band", rSlow.Delay)
	}
	if rSlow.OutputSlew <= r0.OutputSlew {
		t.Error("slow input should slow the output edge")
	}
	// Huge load: still settles (window extension), monotonically slower.
	rBig, err := s.SimulateGate(inv, vec, true, 40e-12, 100*inv.InputCap(tc, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if rBig.Delay <= r0.Delay {
		t.Error("huge load should increase delay")
	}
	// Degenerate step limit trips cleanly.
	tiny := &Sim{Tech: tc, Opts: Options{Temp: 25, MaxSteps: 3}}
	if _, err := tiny.SimulateGateWave(inv, vec, Ramp(0, 40e-12, tc.VDD, true), true, 1e-15); err == nil {
		t.Error("step-limited run should fail loudly")
	}
}

// TestEarlyStopCatchesStuckOutput builds a ratioed inverter by hand: a
// pMOS pull-up against an always-on nMOS pull-down sized so that Z rises
// through every measured level but settles near 92 % of VDD. The
// measurement-only run sees all five crossings and must still fail on
// its final-state DC check. MaxSteps is set below what the settled run
// needs to reach the end of its window, so only the early-stopped path
// can report "stuck".
func TestEarlyStopCatchesStuckOutput(t *testing.T) {
	tc := t130(t)
	vdd := tc.VDD
	gp := 1e-3             // pull-up, 1 kΩ
	gn := gp * 0.08 / 0.92 // pull-down, for Z ≈ 0.92·VDD
	dev := func(nmos bool, gatePin, a, b int, gon float64) netDevice {
		vt := tc.Vt(nmos, 25)
		return netDevice{nmos: nmos, gateNode: -1, gatePin: gatePin, a: a, b: b, gon: gon, vt: vt, full: vdd - vt}
	}
	nw := &network{
		name: "RATIOED", tc: tc, temp: 25, vdd: vdd,
		nodes:    []string{cell.Output},
		caps:     []float64{10e-15},
		pinNames: []string{"A", "EN"},
		devices: []netDevice{
			dev(false, 0, railVDD, 0, gp), // on once A falls
			dev(true, 1, 0, railGND, gn),  // EN holds it on
		},
	}
	in := Ramp(0, 40e-12, vdd, false)
	waves := []Waveform{in, Flat(vdd)}
	end := in.Times[1]
	s := &Sim{Tech: tc, Opts: Options{Temp: 25, MaxSteps: 2000}}

	v, _, err := nw.dcSolve([]float64{0, vdd})
	if err != nil {
		t.Fatal(err)
	}
	if z := v[0] / vdd; z < 0.905 || z > 0.95 {
		t.Fatalf("ratioed output settles at %.3f·VDD, want just above the 90%% level", z)
	}
	_, err = newStepper(nw, s.maxSteps()).transient(waves, 0, end, end, true, true)
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Errorf("measurement-only run: err = %v, want the stuck error", err)
	}
	_, err = newStepper(nw, s.maxSteps()).transient(waves, 0, end, end, true, false)
	if err == nil || !strings.Contains(err.Error(), "did not settle within 2000 steps") {
		t.Errorf("settled run: err = %v, want the step-limit error", err)
	}
}

// TestSimulateGateAllocsFlat is the allocation gate of the transient
// loop: a simulation sizes all its buffers before the first step, so
// its allocation count does not depend on how many steps it takes.
func TestSimulateGateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	tc := t130(t)
	s := New(tc)
	ao22 := cell.Default().MustGet("AO22")
	vec := ao22.Vectors("A")[1]
	cin := ao22.InputCap(tc, "A")
	run := func(fo float64) (allocs float64, points int) {
		r, err := s.SimulateGate(ao22, vec, false, 20e-12, fo*cin)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := s.SimulateGate(ao22, vec, false, 20e-12, fo*cin); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, len(r.Wave.Times)
	}
	lo, nLo := run(0.5)
	hi, nHi := run(16)
	if 2*nLo > nHi {
		t.Fatalf("FO 16 took %d points and FO 0.5 %d; the gate needs a wide spread", nHi, nLo)
	}
	if int(lo) != int(hi) {
		t.Errorf("allocations grow with the step count: %v at %d points, %v at %d points", lo, nLo, hi, nHi)
	}
	t.Logf("%v allocations at %d and at %d points", lo, nLo, nHi)
}
