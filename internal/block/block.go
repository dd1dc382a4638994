// Package block implements classic block-based (graph) static timing
// analysis over the characterized library: topological arrival-time
// propagation with per-arc worst-case delays, required times from a
// clock constraint, slacks and criticality. It is the third analysis
// style of the repository, next to the paper's path-based true-path
// engine (internal/core) and the emulated two-step commercial flow
// (internal/baseline):
//
//   - block-based STA is fast (linear in circuit size) and safe but
//     pessimistic — it ignores both path sensitization (false paths
//     inflate the critical delay) and the sensitization-vector
//     dependence (it takes the worst vector per arc, which no single
//     input vector may realize);
//   - the paper's engine refines exactly these pessimisms.
//
// The arrival graph also provides the exact structural longest-suffix
// bounds the other engines use for pruning, and WorstArrival is a sound
// upper bound on any true-path delay — a property the tests assert.
package block

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// Options tune the analysis.
type Options struct {
	// InputSlew is the transition time assumed at primary inputs
	// (default 40 ps).
	InputSlew float64
	// Temp and VDD select the polynomial model operating point
	// (defaults: 25 °C, nominal VDD).
	Temp, VDD float64
	// ClockPeriod, when positive, defines required times at outputs and
	// therefore slacks.
	ClockPeriod float64
}

// Analyzer performs block-based STA on one circuit.
type Analyzer struct {
	Circuit *netlist.Circuit
	Tech    *tech.Tech
	Lib     *charlib.Library
	Opts    Options

	lastStats Stats
}

// Stats is the instrumentation snapshot of the analyzer's most recent
// Run (Incremental accumulates into the same snapshot, so the totals
// cover a Run plus its ECO updates).
type Stats struct {
	// LevelizeSeconds is the time spent levelizing (topological sort).
	LevelizeSeconds float64 `json:"levelizeSeconds"`
	// ForwardSeconds is the arrival-propagation time.
	ForwardSeconds float64 `json:"forwardSeconds"`
	// RequiredSeconds is the required-time/slack back-propagation time.
	RequiredSeconds float64 `json:"requiredSeconds"`
	// GatesVisited counts gates processed across forward passes.
	GatesVisited int64 `json:"gatesVisited"`
	// ArcQueries counts (gate, pin) worst-delay model evaluations.
	ArcQueries int64 `json:"arcQueries"`
}

// Stats returns the snapshot of the most recent Run (plus any
// Incremental updates since). The analyzer is single-threaded; read it
// after the analysis returns.
func (a *Analyzer) Stats() Stats { return a.lastStats }

// New builds an analyzer.
func New(c *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, opts Options) *Analyzer {
	if opts.InputSlew <= 0 {
		opts.InputSlew = 40e-12
	}
	if num.IsZero(opts.Temp) {
		opts.Temp = 25
	}
	if num.IsZero(opts.VDD) {
		opts.VDD = tc.VDD
	}
	return &Analyzer{Circuit: c, Tech: tc, Lib: lib, Opts: opts}
}

// NodeTiming is the per-net analysis result.
type NodeTiming struct {
	// Arrival is the worst-case (latest) transition arrival time.
	Arrival float64
	// Slew is the transition time accompanying the worst arrival.
	Slew float64
	// Required is the latest permissible arrival (only when a clock
	// period is set; +Inf otherwise).
	Required float64
	// Slack = Required − Arrival.
	Slack float64
	// CriticalPin is the fanin pin realizing the worst arrival ("" for
	// primary inputs).
	CriticalPin string
}

// Report is the whole-circuit result.
type Report struct {
	// Nodes maps net name to its timing.
	Nodes map[string]*NodeTiming
	// WorstArrival is the latest output arrival; WorstOutput names it.
	WorstArrival float64
	WorstOutput  string
	// WorstSlack is the minimum output slack (when a clock period is
	// set).
	WorstSlack float64
}

// Run propagates arrivals in topological order. Each timing arc takes
// the maximum polynomial-model delay over the pin's sensitization
// vectors and both edges — the pessimistic vector-blind abstraction that
// block-based tools use.
func (a *Analyzer) Run() (*Report, error) {
	a.lastStats = Stats{}
	t0 := time.Now()
	topo, err := a.Circuit.TopoGates()
	a.lastStats.LevelizeSeconds = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	rep := &Report{
		Nodes:      make(map[string]*NodeTiming, len(a.Circuit.Nodes)),
		WorstSlack: math.Inf(1),
	}
	for _, in := range a.Circuit.Inputs {
		rep.Nodes[in.Name] = &NodeTiming{Arrival: 0, Slew: a.Opts.InputSlew, Required: math.Inf(1)}
	}
	for _, g := range topo {
		worst := math.Inf(-1)
		worstSlew := 0.0
		worstPin := ""
		for _, pin := range g.Cell.Inputs {
			nt, ok := rep.Nodes[g.Fanin[pin].Name]
			if !ok {
				return nil, fmt.Errorf("block: fanin %s of %s unprocessed", g.Fanin[pin].Name, g.Name)
			}
			d, slew, err := a.arcWorst(g, pin, nt.Slew)
			if err != nil {
				return nil, err
			}
			if arr := nt.Arrival + d; arr > worst {
				worst, worstSlew, worstPin = arr, slew, pin
			}
		}
		rep.Nodes[g.Out.Name] = &NodeTiming{
			Arrival: worst, Slew: worstSlew, Required: math.Inf(1), CriticalPin: worstPin,
		}
	}
	for _, out := range a.Circuit.Outputs {
		nt := rep.Nodes[out.Name]
		if nt.Arrival > rep.WorstArrival {
			rep.WorstArrival = nt.Arrival
			rep.WorstOutput = out.Name
		}
	}
	a.lastStats.GatesVisited += int64(len(topo))
	a.lastStats.ForwardSeconds += time.Since(t0).Seconds()
	if a.Opts.ClockPeriod > 0 {
		a.propagateRequired(rep, topo)
	} else {
		for _, nt := range rep.Nodes {
			nt.Slack = math.Inf(1)
		}
		rep.WorstSlack = math.Inf(1)
	}
	return rep, nil
}

// arcWorst is the worst (delay, slew) over vectors and launch edges of
// one (gate, pin) arc at the given input slew.
func (a *Analyzer) arcWorst(g *netlist.Gate, pin string, slewIn float64) (float64, float64, error) {
	a.lastStats.ArcQueries++
	load := a.Circuit.LoadCap(g.Out, a.Tech)
	fo, err := a.Lib.Fo(g.Cell.Name, load)
	if err != nil {
		return 0, 0, err
	}
	worstD, worstS, err := a.Lib.WorstGateDelay(g.Cell, pin, fo, slewIn, a.Opts.Temp, a.Opts.VDD)
	if err != nil {
		return 0, 0, err
	}
	if math.IsInf(worstD, -1) {
		return 0, 0, fmt.Errorf("block: pin %s of %s has no sensitization vector", pin, g.Cell.Name)
	}
	return worstD, worstS, nil
}

// propagateRequired walks the gates in reverse topological order setting
// required times and slacks. Arc delays are recomputed with the fanin's
// recorded slew, matching the forward pass.
func (a *Analyzer) propagateRequired(rep *Report, topo []*netlist.Gate) {
	t0 := time.Now()
	defer func() { a.lastStats.RequiredSeconds += time.Since(t0).Seconds() }()
	for _, out := range a.Circuit.Outputs {
		nt := rep.Nodes[out.Name]
		if a.Opts.ClockPeriod < nt.Required {
			nt.Required = a.Opts.ClockPeriod
		}
	}
	for i := len(topo) - 1; i >= 0; i-- {
		g := topo[i]
		ont := rep.Nodes[g.Out.Name]
		for _, pin := range g.Cell.Inputs {
			int_ := rep.Nodes[g.Fanin[pin].Name]
			d, _, err := a.arcWorst(g, pin, int_.Slew)
			if err != nil {
				continue
			}
			if req := ont.Required - d; req < int_.Required {
				int_.Required = req
			}
		}
	}
	for _, nt := range rep.Nodes {
		nt.Slack = nt.Required - nt.Arrival
	}
	for _, out := range a.Circuit.Outputs {
		if s := rep.Nodes[out.Name].Slack; s < rep.WorstSlack {
			rep.WorstSlack = s
		}
	}
}

// CriticalCourse traces the structural critical path backwards from the
// worst output via CriticalPin markers, returning the node names from a
// primary input to the output.
func (rep *Report) CriticalCourse(c *netlist.Circuit) []string {
	var revPath []string
	cur := c.Node(rep.WorstOutput)
	for cur != nil {
		revPath = append(revPath, cur.Name)
		if cur.Driver == nil {
			break
		}
		pin := rep.Nodes[cur.Name].CriticalPin
		cur = cur.Driver.Fanin[pin]
	}
	out := make([]string, len(revPath))
	for i, n := range revPath {
		out[len(revPath)-1-i] = n
	}
	return out
}

// WorstNodes returns the k nets with the smallest slack, worst first
// (requires a clock period).
func (rep *Report) WorstNodes(k int) []string {
	type pair struct {
		name  string
		slack float64
	}
	all := make([]pair, 0, len(rep.Nodes))
	for n, nt := range rep.Nodes {
		all = append(all, pair{n, nt.Slack})
	}
	sort.Slice(all, func(i, j int) bool {
		// stalint:ignore floatcmp sort comparator must be an exact total order
		if all[i].slack != all[j].slack {
			return all[i].slack < all[j].slack
		}
		return all[i].name < all[j].name
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].name
	}
	return out
}

// Incremental updates the report after an ECO (e.g. netlist.ReplaceCell
// on some gates): only the affected region is re-propagated — the changed
// gates' forward cones plus, because a resized gate presents a different
// input capacitance to its fanin drivers, those drivers' forward cones.
// Required times and slacks are refreshed when a clock period is set.
// The result is identical to a full Run (asserted by tests); the work is
// proportional to the affected cone.
func (a *Analyzer) Incremental(rep *Report, changed []*netlist.Gate) error {
	if len(changed) == 0 {
		return nil
	}
	// Loads are computed fresh from the netlist on every arc query, so a
	// resized gate's new input capacitance is picked up automatically; the
	// recompute set only has to cover every gate whose arc delays may
	// move: the changed gates and the drivers of their fanins (whose
	// output loads changed), plus everything forward of those.
	dirty := map[int]bool{}
	var seeds []*netlist.Gate
	for _, g := range changed {
		seeds = append(seeds, g)
		for _, pin := range g.Cell.Inputs {
			if d := g.Fanin[pin].Driver; d != nil {
				seeds = append(seeds, d)
			}
		}
	}
	// Forward closure over the seeds.
	var mark func(g *netlist.Gate)
	mark = func(g *netlist.Gate) {
		if dirty[g.ID] {
			return
		}
		dirty[g.ID] = true
		for _, ref := range g.Out.Fanout {
			mark(ref.Gate)
		}
	}
	for _, g := range seeds {
		mark(g)
	}

	t0 := time.Now()
	topo, err := a.Circuit.TopoGates()
	a.lastStats.LevelizeSeconds += time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, g := range topo {
		if !dirty[g.ID] {
			continue
		}
		a.lastStats.GatesVisited++
		worst := math.Inf(-1)
		worstSlew := 0.0
		worstPin := ""
		for _, pin := range g.Cell.Inputs {
			nt := rep.Nodes[g.Fanin[pin].Name]
			d, slew, err := a.arcWorst(g, pin, nt.Slew)
			if err != nil {
				return err
			}
			if arr := nt.Arrival + d; arr > worst {
				worst, worstSlew, worstPin = arr, slew, pin
			}
		}
		nt := rep.Nodes[g.Out.Name]
		nt.Arrival, nt.Slew, nt.CriticalPin = worst, worstSlew, worstPin
	}
	// Refresh the summary fields.
	rep.WorstArrival, rep.WorstOutput = 0, ""
	for _, out := range a.Circuit.Outputs {
		if nt := rep.Nodes[out.Name]; nt.Arrival > rep.WorstArrival {
			rep.WorstArrival, rep.WorstOutput = nt.Arrival, out.Name
		}
	}
	a.lastStats.ForwardSeconds += time.Since(t0).Seconds()
	if a.Opts.ClockPeriod > 0 {
		for _, nt := range rep.Nodes {
			nt.Required = math.Inf(1)
		}
		rep.WorstSlack = math.Inf(1)
		a.propagateRequired(rep, topo)
	}
	return nil
}
