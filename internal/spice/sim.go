package spice

import (
	"fmt"
	"math"

	"tpsta/internal/cell"
	"tpsta/internal/logic"
	"tpsta/internal/tech"
)

// Options tune a simulation run.
type Options struct {
	// Temp is the junction temperature in °C. Zero value means 25 °C is
	// NOT assumed — use New, which fills defaults; a literal Options{}
	// passed to Sim means 0 °C.
	Temp float64
	// VDD is the supply voltage; 0 selects the technology nominal.
	VDD float64
	// MaxSteps caps the number of transient steps per gate simulation
	// (default 60000).
	MaxSteps int
}

// Sim is a simulator bound to one technology card.
type Sim struct {
	Tech *tech.Tech
	Opts Options
}

// New returns a simulator at nominal conditions (25 °C, nominal VDD).
func New(tc *tech.Tech) *Sim {
	return &Sim{Tech: tc, Opts: Options{Temp: 25}}
}

// NewAt returns a simulator at the given temperature and supply.
func NewAt(tc *tech.Tech, temp, vdd float64) *Sim {
	return &Sim{Tech: tc, Opts: Options{Temp: temp, VDD: vdd}}
}

func (s *Sim) vdd() float64 {
	if s.Opts.VDD > 0 {
		return s.Opts.VDD
	}
	return s.Tech.VDD
}

func (s *Sim) maxSteps() int {
	if s.Opts.MaxSteps > 0 {
		return s.Opts.MaxSteps
	}
	return 60000
}

// Result reports one gate simulation.
type Result struct {
	// Delay is the 50 %→50 % propagation delay from the switching input
	// to the cell output, in seconds.
	Delay float64
	// OutputSlew is the 10 %–90 % transition time of the output edge.
	OutputSlew float64
	// OutputSlew2080 is the 20 %–80 % transition time, scaled by 0.8/0.6
	// to approximate a full-swing figure — the measurement convention the
	// emulated commercial characterization uses. Long settling tails make
	// it systematically smaller than OutputSlew.
	OutputSlew2080 float64
	// OutputRising is the direction of the output edge.
	OutputRising bool
	// Wave is the output waveform (Z voltage over time). From
	// SimulateGateWave it runs until the output settles at its rail; from
	// SimulateGate it ends at the last measured threshold crossing.
	Wave Waveform
}

// SimulateGate drives pin of cell c with a rail-to-rail ramp of the given
// 10–90 % transition time tin while holding the side inputs at vector
// vec's steady values, with an external load capacitance on Z, and
// returns the measured delay and output slew.
//
// It is measurement-only: the transient stops as soon as the output has
// crossed every level the measurements read (see measureFracs), so it
// returns exactly the numbers SimulateGateWave measures on the same ramp
// without integrating the settling tail. A DC solve at the inputs' final
// levels stands in for the settling check.
func (s *Sim) SimulateGate(c *cell.Cell, vec cell.Vector, inputRising bool, tin, load float64) (Result, error) {
	in := Ramp(0, tin, s.vdd(), inputRising)
	return s.simulateGate(c, vec, in, inputRising, load, true)
}

// SimulateGateWave is SimulateGate with an arbitrary input waveform
// (used for path simulation, where each gate sees the previous gate's
// simulated output). It runs until the output settles, so Result.Wave
// is complete.
func (s *Sim) SimulateGateWave(c *cell.Cell, vec cell.Vector, in Waveform, inputRising bool, load float64) (Result, error) {
	return s.simulateGate(c, vec, in, inputRising, load, false)
}

// simulateGate is the single-input gate simulation behind SimulateGate
// (measureOnly) and SimulateGateWave.
func (s *Sim) simulateGate(c *cell.Cell, vec cell.Vector, in Waveform, inputRising bool, load float64, measureOnly bool) (Result, error) {
	if err := in.validate(); err != nil {
		return Result{}, err
	}
	vdd := s.vdd()
	outRising, ok := c.OutputEdge(vec, inputRising)
	if !ok {
		return Result{}, fmt.Errorf("spice: vector %s does not sensitize %s of %s", vec.Key(), vec.Pin, c.Name)
	}
	nw, err := buildNetwork(c, s.Tech, s.Opts.Temp, vdd, load)
	if err != nil {
		return Result{}, err
	}

	// Pin voltage sources: the switching pin follows the input waveform,
	// side pins hold their vector rails.
	waves := make([]Waveform, len(nw.pinNames))
	for i, p := range nw.pinNames {
		switch {
		case p == vec.Pin:
			waves[i] = in
		default:
			lvl, present := vec.Side[p]
			if !present {
				return Result{}, fmt.Errorf("spice: vector %s leaves pin %s of %s unassigned", vec.Key(), p, c.Name)
			}
			if lvl {
				waves[i] = Flat(vdd)
			} else {
				waves[i] = Flat(0)
			}
		}
	}

	tStart := in.Times[0]
	inEnd := in.Times[len(in.Times)-1]
	out, err := s.transient(nw, waves, tStart, inEnd, inEnd-tStart, outRising, measureOnly)
	if err != nil {
		return Result{}, err
	}
	inCross, ok := in.Cross(vdd/2, inputRising)
	if !ok {
		return Result{}, fmt.Errorf("spice: input waveform never crosses 50%%")
	}
	outCross, slew, slew2080, err := measureEdge(out, vdd, outRising, c.Name)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Delay:          outCross - inCross,
		OutputSlew:     slew,
		OutputSlew2080: slew2080,
		OutputRising:   outRising,
		Wave:           out,
	}, nil
}

// measureFracs are the output levels, as fractions of VDD, that
// measureEdge reads: the 10–90 % and 20–80 % edges and the 50 % delay
// point. A measurement-only transient stops once it has seen the first
// crossing of each.
var measureFracs = [...]float64{0.1, 0.2, 0.5, 0.8, 0.9}

// measureEdge reads an output edge in direction rising: the time of its
// first 50 % crossing, its 10–90 % transition time and its 20–80 %
// transition time scaled to a full-swing figure. Each reads only first
// crossings of measureFracs levels.
func measureEdge(out Waveform, vdd float64, rising bool, name string) (cross, slew, slew2080 float64, err error) {
	cross, ok := out.Cross(vdd/2, rising)
	if !ok {
		return 0, 0, 0, fmt.Errorf("spice: output of %s never crosses 50%%", name)
	}
	slew, ok = out.Slew(vdd, rising)
	if !ok {
		return 0, 0, 0, fmt.Errorf("spice: output of %s never completes its edge", name)
	}
	slew2080, ok = out.SlewBetween(vdd, 0.2, 0.8, rising)
	if !ok {
		return 0, 0, 0, fmt.Errorf("spice: output of %s never completes its 20-80 edge", name)
	}
	return cross, slew, slew2080 * (0.8 / 0.6), nil
}

// transient integrates nw with backward Euler from tStart, each driven
// pin following its entry of waves, and returns the output waveform of
// an edge towards the outRising rail. The step resolves both the
// network's time constant and one input edge of duration ramp; the
// window spans the inputs' activity up to inEnd plus 30 time constants
// and doubles, at most six times, until the output settles.
//
// With measureOnly the run ends instead at the step where the output
// first crosses the last of the measureFracs levels: measureEdge reads
// only first crossings, which the shortened waveform keeps bit for bit.
// The settling check then falls to checkFinal.
//
// Everything the steps touch is allocated once per run.
func (s *Sim) transient(nw *network, waves []Waveform, tStart, inEnd, ramp float64, outRising, measureOnly bool) (Waveform, error) {
	vdd := nw.vdd
	// Crude time constant estimate for window/step sizing: the slowest
	// single device driving the total network capacitance.
	rMax := 0.0
	for i := range nw.devices {
		if r := 1 / nw.devices[i].gon; r > rMax {
			rMax = r
		}
	}
	cTot := 0.0
	for _, cp := range nw.caps {
		cTot += cp
	}
	tau := rMax * cTot
	if tau <= 0 {
		return Waveform{}, fmt.Errorf("spice: degenerate network for %s", nw.name)
	}
	dt := tau / 60
	if ramp > 0 && ramp/40 < dt {
		dt = ramp / 40
	}
	window := (inEnd - tStart) + 30*tau
	maxSteps := s.maxSteps()

	vp := make([]float64, len(waves))
	for i, w := range waves {
		vp[i] = w.At(tStart)
	}
	v, err := nw.dcSolve(vp)
	if err != nil {
		return Waveform{}, err
	}

	n := len(nw.nodes)
	G := newMatrix(n)
	I := make([]float64, n)
	it := make([]float64, n)  // fixed-point iterate
	x := make([]float64, n)   // linear-solve output
	cdt := make([]float64, n) // backward-Euler companion conductances C/dt
	for i, cp := range nw.caps {
		cdt[i] = cp / dt
	}
	// The waveform holds every step of the unextended window, or of
	// the step limit if that is smaller.
	size := maxSteps + 1
	if est := window/dt + 2; est < float64(size) {
		size = int(est)
	}
	times := append(make([]float64, 0, size), tStart)
	volts := append(make([]float64, 0, size), v[nw.zIdx])

	settleTarget := 0.0
	if outRising {
		settleTarget = vdd
	}
	var seen [len(measureFracs)]bool
	unseen := len(seen)

	t := tStart
	steps := 0
	extended := 0
	for {
		t += dt
		steps++
		if steps > maxSteps {
			return Waveform{}, fmt.Errorf("spice: %s did not settle within %d steps", nw.name, maxSteps)
		}
		for i, w := range waves {
			vp[i] = w.At(t)
		}
		// Backward Euler with 3 fixed-point refinements of the nonlinear
		// conductances.
		copy(it, v)
		for k := 0; k < 3; k++ {
			nw.assemble(it, vp, G, I)
			for i, g := range cdt {
				G[i][i] += g
				I[i] += g * v[i]
			}
			if err := solveLinear(G, I, x); err != nil {
				return Waveform{}, err
			}
			it, x = x, it
		}
		v, it = it, v
		vz := v[nw.zIdx]
		prev := volts[len(volts)-1]
		times = append(times, t)
		volts = append(volts, vz)

		if measureOnly {
			for k, f := range measureFracs {
				if !seen[k] && crosses(prev, vz, f*vdd, outRising) {
					seen[k] = true
					unseen--
				}
			}
			if unseen == 0 {
				if err := nw.checkFinal(waves, vp, settleTarget); err != nil {
					return Waveform{}, err
				}
				break
			}
		}
		if t >= tStart+window {
			if math.Abs(vz-settleTarget) < 0.005*vdd {
				break
			}
			if extended >= 6 {
				return Waveform{}, nw.stuck(vz, settleTarget)
			}
			extended++
			window *= 2
		} else if t > inEnd && math.Abs(vz-settleTarget) < 0.001*vdd {
			break
		}
	}
	return Waveform{Times: times, Volts: volts}, nil
}

// checkFinal stands in for the settling tail a measurement-only run
// skips: the operating point at the inputs' final levels (vp is
// scratch) must put the output within 0.5 % of VDD of its target rail.
func (nw *network) checkFinal(waves []Waveform, vp []float64, target float64) error {
	for i, w := range waves {
		vp[i] = w.Final()
	}
	v, err := nw.dcSolve(vp)
	if err != nil {
		return err
	}
	if z := v[nw.zIdx]; math.Abs(z-target) >= 0.005*nw.vdd {
		return nw.stuck(z, target)
	}
	return nil
}

// stuck reports an output that settles at v short of its target rail.
func (nw *network) stuck(v, target float64) error {
	return fmt.Errorf("spice: output of %s stuck at %.3f V (target %.3f V)", nw.name, v, target)
}

// PathStage is one gate instance along a simulated path.
type PathStage struct {
	// Cell is the library cell.
	Cell *cell.Cell
	// Vec names the sensitized pin and fixes the side inputs.
	Vec cell.Vector
	// Load is the total external capacitance on the stage output,
	// including the next stage's input pin (the caller computes fanout
	// loading from the netlist).
	Load float64
}

// PathResult reports a chained path simulation.
type PathResult struct {
	// StageDelays and StageSlews hold the per-gate 50–50 delays and
	// 10–90 output slews.
	StageDelays []float64
	StageSlews  []float64
	// Total is the input-to-output 50–50 delay (the sum of stage delays).
	Total float64
	// FinalRising is the edge direction at the path output.
	FinalRising bool
}

// SimulatePath chains gate simulations along stages: the first gate sees a
// ramp with transition time tin, every later gate sees its predecessor's
// simulated output waveform. This is the reference ("electrical
// simulation") against which the paper's Tables 7–9 measure model error.
func (s *Sim) SimulatePath(stages []PathStage, inputRising bool, tin float64) (PathResult, error) {
	if len(stages) == 0 {
		return PathResult{}, fmt.Errorf("spice: empty path")
	}
	res := PathResult{}
	wave := Ramp(0, tin, s.vdd(), inputRising)
	rising := inputRising
	for i, st := range stages {
		r, err := s.SimulateGateWave(st.Cell, st.Vec, wave, rising, st.Load)
		if err != nil {
			return PathResult{}, fmt.Errorf("stage %d (%s/%s): %w", i, st.Cell.Name, st.Vec.Pin, err)
		}
		res.StageDelays = append(res.StageDelays, r.Delay)
		res.StageSlews = append(res.StageSlews, r.OutputSlew)
		res.Total += r.Delay
		wave = r.Wave
		rising = r.OutputRising
	}
	res.FinalRising = rising
	return res, nil
}

// SwitchingInput describes one simultaneously switching input of a
// multiple-input-switching (MIS) simulation.
type SwitchingInput struct {
	// Pin is the switching input.
	Pin string
	// Rising is the edge direction.
	Rising bool
	// Offset delays this input's ramp start relative to t=0 (may be
	// negative: that input switches first).
	Offset float64
}

// MISResult reports a multiple-input-switching simulation.
type MISResult struct {
	// OutputCross is the absolute time of the output's 50% crossing.
	OutputCross float64
	// OutputRising is the output edge direction.
	OutputRising bool
	// OutputSlew is the 10-90% output transition time.
	OutputSlew float64
	// Wave is the output waveform.
	Wave Waveform
}

// SimulateGateMIS drives several inputs of the cell with (possibly
// staggered) ramps while the remaining side inputs hold steady levels —
// the "multiple simultaneous transitions" analysis the paper lists as
// future work. The initial and final input states must produce different
// output levels; the measured output crossing is absolute (t=0 is the
// un-offset ramp start), so callers can compare alignments.
func (s *Sim) SimulateGateMIS(c *cell.Cell, switching []SwitchingInput, side map[string]bool, tin, load float64) (MISResult, error) {
	if len(switching) == 0 {
		return MISResult{}, fmt.Errorf("spice: no switching inputs")
	}
	vdd := s.vdd()

	// Determine initial/final logic output to know the expected edge.
	initEnv := make(map[string]logic.Value, len(c.Inputs))
	finEnv := make(map[string]logic.Value, len(c.Inputs))
	assigned := map[string]bool{}
	for _, sw := range switching {
		if assigned[sw.Pin] {
			return MISResult{}, fmt.Errorf("spice: pin %s switches twice", sw.Pin)
		}
		assigned[sw.Pin] = true
		if sw.Rising {
			initEnv[sw.Pin], finEnv[sw.Pin] = logic.V0, logic.V1
		} else {
			initEnv[sw.Pin], finEnv[sw.Pin] = logic.V1, logic.V0
		}
	}
	for _, pin := range c.Inputs {
		if assigned[pin] {
			continue
		}
		lvl, ok := side[pin]
		if !ok {
			return MISResult{}, fmt.Errorf("spice: pin %s neither switching nor held", pin)
		}
		assigned[pin] = true
		if lvl {
			initEnv[pin], finEnv[pin] = logic.V1, logic.V1
		} else {
			initEnv[pin], finEnv[pin] = logic.V0, logic.V0
		}
	}
	v0 := c.Eval(initEnv)
	v1 := c.Eval(finEnv)
	if v0 == v1 || !v0.IsStable() || !v1.IsStable() {
		return MISResult{}, fmt.Errorf("spice: MIS stimulus does not toggle the output (%s → %s)", v0, v1)
	}
	outRising := v1 == logic.V1

	nw, err := buildNetwork(c, s.Tech, s.Opts.Temp, vdd, load)
	if err != nil {
		return MISResult{}, err
	}
	waves := make([]Waveform, len(nw.pinNames))
	tMin, tMax := math.Inf(1), math.Inf(-1)
	for i, p := range nw.pinNames {
		var w Waveform
		found := false
		for _, sw := range switching {
			if sw.Pin == p {
				w = Ramp(sw.Offset, tin, vdd, sw.Rising)
				found = true
				break
			}
		}
		if !found {
			if side[p] {
				w = Flat(vdd)
			} else {
				w = Flat(0)
			}
		} else {
			if w.Times[0] < tMin {
				tMin = w.Times[0]
			}
			if w.Times[len(w.Times)-1] > tMax {
				tMax = w.Times[len(w.Times)-1]
			}
		}
		waves[i] = w
	}

	out, err := s.transient(nw, waves, tMin, tMax, tin*slewToRamp, outRising, false)
	if err != nil {
		return MISResult{}, err
	}
	cross, slew, _, err := measureEdge(out, vdd, outRising, c.Name)
	if err != nil {
		return MISResult{}, err
	}
	return MISResult{OutputCross: cross, OutputRising: outRising, OutputSlew: slew, Wave: out}, nil
}
