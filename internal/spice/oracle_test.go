package spice_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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

// TestSweepMatchesSimulateGate is the oracle of the sweep: every arc
// of the default library at every quick characterization grid point,
// run through one Sweep in grid order and through another in reverse,
// must report bit for bit what a fresh SimulateGate reports, and the
// two sweeps must cap the same operating points.
func TestSweepMatchesSimulateGate(t *testing.T) {
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	s := spice.New(tc)
	g := charlib.TestGrid()
	type point struct{ fo, tin float64 }
	var grid []point
	for _, fo := range g.Fo {
		for _, tin := range g.Tin {
			grid = append(grid, point{fo, tin})
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	type arc struct {
		c      *cell.Cell
		vec    cell.Vector
		rising bool
		cin    float64
	}
	run := func(a arc) error {
		want := make([]spice.Result, len(grid))
		for i, p := range grid {
			var err error
			if want[i], err = s.SimulateGate(a.c, a.vec, a.rising, p.tin, p.fo*a.cin); err != nil {
				return err
			}
		}
		capped := -1
		for _, reverse := range []bool{false, true} {
			sw, err := s.NewSweep(a.c, a.vec, a.rising)
			if err != nil {
				return err
			}
			for k := range grid {
				i := k
				if reverse {
					i = len(grid) - 1 - k
				}
				p := grid[i]
				r, err := sw.Run(p.tin, p.fo*a.cin)
				if err != nil {
					return err
				}
				w := want[i]
				if !same(r.Delay, w.Delay) || !same(r.OutputSlew, w.OutputSlew) ||
					!same(r.OutputSlew2080, w.OutputSlew2080) || r.OutputRising != w.OutputRising ||
					len(r.Wave.Times) != len(w.Wave.Times) {
					return fmt.Errorf("reverse=%v fo=%g tin=%g: sweep %v != fresh %v", reverse, p.fo, p.tin,
						[3]float64{r.Delay, r.OutputSlew, r.OutputSlew2080},
						[3]float64{w.Delay, w.OutputSlew, w.OutputSlew2080})
				}
				for j := range r.Wave.Times {
					if !same(r.Wave.Times[j], w.Wave.Times[j]) || !same(r.Wave.Volts[j], w.Wave.Volts[j]) {
						return fmt.Errorf("reverse=%v fo=%g tin=%g: waveforms diverge at point %d", reverse, p.fo, p.tin, j)
					}
				}
			}
			if got := sw.CappedOperatingPoints(); capped >= 0 && got != capped {
				return fmt.Errorf("the reverse sweep capped %d operating points, the forward one %d", got, capped)
			}
			capped = sw.CappedOperatingPoints()
		}
		return nil
	}
	// The arcs are independent, and a Sim is safe to share: spread
	// them over the host's CPUs.
	next := make(chan arc)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range next {
				if err := run(a); err != nil {
					t.Errorf("%s/%s %s rising=%v: %v", a.c.Name, a.vec.Pin, a.vec.Key(), a.rising, err)
				}
			}
		}()
	}
	for _, c := range cell.Default().Cells() {
		// charlib's reference load: the cell's mean input capacitance.
		cin := 0.0
		for _, pin := range c.Inputs {
			cin += c.InputCap(tc, pin)
		}
		cin /= float64(len(c.Inputs))
		for _, pin := range c.Inputs {
			for _, vec := range c.Vectors(pin) {
				next <- arc{c, vec, true, cin}
				next <- arc{c, vec, false, cin}
			}
		}
	}
	close(next)
	wg.Wait()
}
