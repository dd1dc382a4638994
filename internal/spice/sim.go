package spice

import (
	"fmt"
	"math"

	"tpsta/internal/cell"
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
// returns the measured delay and output slew. It is the one-point
// Sweep of the arc.
//
// It is measurement-only: the transient stops as soon as the output has
// crossed every level the measurements read (see measureFracs), so it
// returns exactly the numbers SimulateGateWave measures on the same ramp
// without integrating the settling tail. A DC solve at the inputs' final
// levels stands in for the settling check.
func (s *Sim) SimulateGate(c *cell.Cell, vec cell.Vector, inputRising bool, tin, load float64) (Result, error) {
	sw, err := s.NewSweep(c, vec, inputRising)
	if err != nil {
		return Result{}, err
	}
	return sw.Run(tin, load)
}

// SimulateGateWave is SimulateGate with an arbitrary input waveform
// (used for path simulation, where each gate sees the previous gate's
// simulated output). It runs until the output settles, so Result.Wave
// is complete.
func (s *Sim) SimulateGateWave(c *cell.Cell, vec cell.Vector, in Waveform, inputRising bool, load float64) (Result, error) {
	if err := in.validate(); err != nil {
		return Result{}, err
	}
	sw, err := s.NewSweep(c, vec, inputRising)
	if err != nil {
		return Result{}, err
	}
	return sw.run(in, load, false)
}

// Sweep simulates one timing arc (a cell's pin under a sensitization
// vector, one input edge, at the simulator's temperature and supply)
// at any number of (input transition, load) points. It builds the
// arc's network once, solves the operating points at the inputs'
// initial and final levels once, and integrates every point in one
// set of step buffers. That is exact: the devices and the pin levels
// at both ends are the same at every point, and a point's load enters
// only as Z's capacitance, which Run sets as buildNetwork adds it. So
// Run reports, bit for bit, what SimulateGate reports at that point.
//
// A Sweep is not safe for concurrent use; Sim is.
type Sweep struct {
	st          *stepper
	cellName    string
	waves       []Waveform // pin sources; the switching pin's is set per run
	pin         int        // index of the switching pin in waves
	inputRising bool
	outRising   bool
}

// NewSweep prepares the sweep of the arc that drives pin vec.Pin of
// cell c with an input edge in direction inputRising while the side
// inputs hold vector vec's steady values.
func (s *Sim) NewSweep(c *cell.Cell, vec cell.Vector, inputRising bool) (*Sweep, error) {
	vdd := s.vdd()
	outRising, ok := c.OutputEdge(vec, inputRising)
	if !ok {
		return nil, fmt.Errorf("spice: vector %s does not sensitize %s of %s", vec.Key(), vec.Pin, c.Name)
	}
	nw, err := buildNetwork(c, s.Tech, s.Opts.Temp, vdd, 0)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		st:          newStepper(nw, s.maxSteps()),
		cellName:    c.Name,
		waves:       make([]Waveform, len(nw.pinNames)),
		inputRising: inputRising,
		outRising:   outRising,
	}
	// Pin voltage sources: the switching pin follows the input waveform,
	// side pins hold their vector rails.
	for i, p := range nw.pinNames {
		if p == vec.Pin {
			sw.pin = i
			continue
		}
		lvl, present := vec.Side[p]
		if !present {
			return nil, fmt.Errorf("spice: vector %s leaves pin %s of %s unassigned", vec.Key(), p, c.Name)
		}
		if lvl {
			sw.waves[i] = Flat(vdd)
		} else {
			sw.waves[i] = Flat(0)
		}
	}
	return sw, nil
}

// Run simulates the arc with a rail-to-rail input ramp of 10–90 %
// transition time tin and an external load on Z, as SimulateGate
// does. Result.Wave shares the sweep's buffers: it holds until the
// next Run.
func (sw *Sweep) Run(tin, load float64) (Result, error) {
	return sw.run(Ramp(0, tin, sw.st.nw.vdd, sw.inputRising), load, true)
}

// CappedOperatingPoints counts the sweep's operating points, of the
// two its runs have solved so far, at which the DC solve stopped at
// its iteration cap without converging.
func (sw *Sweep) CappedOperatingPoints() int {
	n := 0
	for _, op := range []*opPoint{&sw.st.start, &sw.st.final} {
		if op.solved && op.err == nil && !op.converged {
			n++
		}
	}
	return n
}

// run is the single-input gate simulation behind Run (measureOnly) and
// SimulateGateWave. Every run of a sweep must start its input at the
// same level: the start operating point is solved once.
func (sw *Sweep) run(in Waveform, load float64, measureOnly bool) (Result, error) {
	st := sw.st
	st.nw.setLoad(load)
	sw.waves[sw.pin] = in
	tStart := in.Times[0]
	inEnd := in.Times[len(in.Times)-1]
	out, err := st.transient(sw.waves, tStart, inEnd, inEnd-tStart, sw.outRising, measureOnly)
	if err != nil {
		return Result{}, err
	}
	vdd := st.nw.vdd
	inCross, ok := in.Cross(vdd/2, sw.inputRising)
	if !ok {
		return Result{}, fmt.Errorf("spice: input waveform never crosses 50%%")
	}
	outCross, slew, slew2080, err := measureEdge(out, vdd, sw.outRising, sw.cellName)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Delay:          outCross - inCross,
		OutputSlew:     slew,
		OutputSlew2080: slew2080,
		OutputRising:   sw.outRising,
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

// opPoint is an operating point a stepper solves on first use.
type opPoint struct {
	solved    bool
	v         []float64
	converged bool
	err       error
}

// stepper integrates the transients of one network. It holds the
// operating points its runs start and end at, and everything the steps
// touch, so that the runs of a sweep allocate them once.
type stepper struct {
	nw       *network
	maxSteps int
	// start and final are the operating points at the inputs' levels
	// before and after their edges, the same for every run of a sweep.
	start, final opPoint

	vp       []float64 // pin voltages
	v, it, x []float64 // state, fixed-point iterate, linear-solve output
	cdt      []float64 // backward-Euler companion conductances C/dt
	G        [][]float64
	I        []float64
	times    []float64 // the waveform buffers, grown as a run needs
	volts    []float64
}

func newStepper(nw *network, maxSteps int) *stepper {
	n := len(nw.nodes)
	return &stepper{
		nw: nw, maxSteps: maxSteps,
		vp: make([]float64, len(nw.pinNames)),
		v:  make([]float64, n), it: make([]float64, n), x: make([]float64, n),
		cdt: make([]float64, n),
		G:   newMatrix(n),
		I:   make([]float64, n),
	}
}

// solve returns operating point op, solving it at the pin voltages vp
// on first use.
func (st *stepper) solve(op *opPoint, vp []float64) ([]float64, error) {
	if !op.solved {
		op.v, op.converged, op.err = st.nw.dcSolve(vp)
		op.solved = true
	}
	return op.v, op.err
}

// transient integrates the network with backward Euler from tStart,
// each driven pin following its entry of waves, and returns the output
// waveform of an edge towards the outRising rail. The step resolves
// both the network's time constant and one input edge of duration
// ramp; the window spans the inputs' activity up to inEnd plus 30 time
// constants and doubles, at most six times, until the output settles.
//
// With measureOnly the run ends instead at the step where the output
// first crosses the last of the measureFracs levels: measureEdge reads
// only first crossings, which the shortened waveform keeps bit for bit.
// The settling check then falls to checkFinal.
//
// The waveform it returns shares the stepper's buffers. The first run
// sizes them before its first step, so a one-point run allocates
// nothing per step; later runs reuse them.
func (st *stepper) transient(waves []Waveform, tStart, inEnd, ramp float64, outRising, measureOnly bool) (Waveform, error) {
	nw := st.nw
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
	maxSteps := st.maxSteps

	vp := st.vp
	for i, w := range waves {
		vp[i] = w.At(tStart)
	}
	v0, err := st.solve(&st.start, vp)
	if err != nil {
		return Waveform{}, err
	}
	G, I, cdt := st.G, st.I, st.cdt
	v, it, x := st.v, st.it, st.x
	copy(v, v0)
	for i, cp := range nw.caps {
		cdt[i] = cp / dt
	}
	// A stepper's first run sizes the waveform for every step of its
	// unextended window, or of the step limit if that is smaller. The
	// runs after it reuse the buffers, grown as far as a run needed:
	// a measurement-only run stops long before its window ends.
	if st.times == nil {
		size := maxSteps + 1
		if est := window/dt + 2; est < float64(size) {
			size = int(est)
		}
		st.times, st.volts = make([]float64, 0, size), make([]float64, 0, size)
	}
	times := append(st.times[:0], tStart)
	volts := append(st.volts[:0], v[nw.zIdx])

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
				if err := st.checkFinal(waves, settleTarget); err != nil {
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
	// Keep the buffers as far as the window extensions grew them.
	st.times, st.volts = times[:0], volts[:0]
	return Waveform{Times: times, Volts: volts}, nil
}

// checkFinal stands in for the settling tail a measurement-only run
// skips: the operating point at the inputs' final levels must put the
// output within 0.5 % of VDD of its target rail.
func (st *stepper) checkFinal(waves []Waveform, target float64) error {
	for i, w := range waves {
		st.vp[i] = w.Final()
	}
	v, err := st.solve(&st.final, st.vp)
	if err != nil {
		return err
	}
	if z := v[st.nw.zIdx]; math.Abs(z-target) >= 0.005*st.nw.vdd {
		return st.nw.stuck(z, target)
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
