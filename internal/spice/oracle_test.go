package spice_test

import (
	"math"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/spice"
	"tpsta/internal/tech"
)

// TestMeasurementStopMatchesSettled is the differential oracle of the
// measurement stop. For every arc of the default library at the quick
// characterization grid's two extreme (Fo, Tin) corners, SimulateGate,
// which ends at the output's last measured crossing, must report bit
// for bit the measurements of SimulateGateWave, which integrates the
// same ramp until the output settles, and its waveform must be a prefix
// of the settled one.
func TestMeasurementStopMatchesSettled(t *testing.T) {
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	s := spice.New(tc)
	g := charlib.TestGrid()
	corners := [][2]float64{
		{g.Fo[0], g.Tin[0]},
		{g.Fo[len(g.Fo)-1], g.Tin[len(g.Tin)-1]},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	earlySteps, settledSteps := 0, 0
	for _, c := range cell.Default().Cells() {
		// charlib's reference load: the cell's mean input capacitance.
		cin := 0.0
		for _, pin := range c.Inputs {
			cin += c.InputCap(tc, pin)
		}
		cin /= float64(len(c.Inputs))
		for _, pin := range c.Inputs {
			for _, vec := range c.Vectors(pin) {
				for _, rising := range []bool{true, false} {
					for _, k := range corners {
						fo, tin := k[0], k[1]
						arc := func() string {
							return c.Name + "/" + pin + " " + vec.Key()
						}
						early, err := s.SimulateGate(c, vec, rising, tin, fo*cin)
						if err != nil {
							t.Fatalf("%s rising=%v fo=%g: %v", arc(), rising, fo, err)
						}
						settled, err := s.SimulateGateWave(c, vec, spice.Ramp(0, tin, tc.VDD, rising), rising, fo*cin)
						if err != nil {
							t.Fatalf("%s rising=%v fo=%g settled: %v", arc(), rising, fo, err)
						}
						if !same(early.Delay, settled.Delay) || !same(early.OutputSlew, settled.OutputSlew) ||
							!same(early.OutputSlew2080, settled.OutputSlew2080) {
							t.Errorf("%s rising=%v fo=%g: stopped %+v != settled %+v", arc(), rising, fo,
								[3]float64{early.Delay, early.OutputSlew, early.OutputSlew2080},
								[3]float64{settled.Delay, settled.OutputSlew, settled.OutputSlew2080})
						}
						ew, sw := early.Wave, settled.Wave
						if len(ew.Times) > len(sw.Times) {
							t.Fatalf("%s rising=%v fo=%g: stopped run took %d points, settled %d",
								arc(), rising, fo, len(ew.Times), len(sw.Times))
						}
						for i := range ew.Times {
							if !same(ew.Times[i], sw.Times[i]) || !same(ew.Volts[i], sw.Volts[i]) {
								t.Fatalf("%s rising=%v fo=%g: waveforms diverge at point %d", arc(), rising, fo, i)
							}
						}
						earlySteps += len(ew.Times)
						settledSteps += len(sw.Times)
					}
				}
			}
		}
	}
	if 2*earlySteps > settledSteps {
		t.Errorf("measurement stop kept %d of %d steps; expected under half", earlySteps, settledSteps)
	}
	t.Logf("measurement stop: %d of %d steps", earlySteps, settledSteps)
}
