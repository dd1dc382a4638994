// Package baseline emulates the two-step commercial STA flow the paper
// compares against:
//
//  1. enumerate structural paths longest-first from vector-blind LUT
//     (NLDM) arc delays — without knowing how many structural paths must
//     be examined to cover the N slowest *true* paths (the drawback the
//     paper's single-pass design removes);
//  2. for each structural path, attempt sensitization with a backtrack
//     limit, always taking the *easiest* sensitization vector (Case 1) on
//     every complex gate — the behaviour the paper observes: "the
//     commercial tool simply finds the case for which the complex gate
//     input assignations are easier to justify instead of exploring all
//     the possibilities";
//  3. report per-path delay from the LUT model, which was characterized
//     on that same default vector and therefore cannot express the
//     vector dependence.
//
// Misclassification arises naturally: a path that is true only under a
// non-default vector is declared false, and paths whose justification
// exceeds the backtrack limit are abandoned — reproducing the "#False
// paths" and "Backtrack limited" columns of the paper's Table 6.
package baseline

import (
	"fmt"
	"time"

	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/sim"
	"tpsta/internal/tech"
)

// Verdict classifies one examined structural path.
type Verdict int

// Possible verdicts.
const (
	// VerdictTrue: a sensitizing input vector was found.
	VerdictTrue Verdict = iota
	// VerdictFalse: the restricted search space (default vectors only)
	// was exhausted — the tool *declares* the path false, which may be a
	// misidentification.
	VerdictFalse
	// VerdictAbandoned: the backtrack limit tripped before a conclusion.
	VerdictAbandoned
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictTrue:
		return "true"
	case VerdictFalse:
		return "false"
	case VerdictAbandoned:
		return "backtrack-limited"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Outcome is the tool's report for one structural path.
type Outcome struct {
	// Nodes is the structural course (net names, input → output).
	Nodes []string
	// Arcs lists the traversed (gate, pin) pairs.
	Arcs []PathArc
	// StructuralDelay is the vector-blind LUT delay used for ordering.
	StructuralDelay float64
	// Verdict is the sensitization result.
	Verdict Verdict
	// Cube is the single input vector reported (VerdictTrue only).
	Cube sim.InputCube
	// Backtracks counts justification retries spent on the path.
	Backtracks int
	// Delay is the reported LUT path delay (slew-chained, worst edge).
	Delay float64
}

// PathArc is one gate traversal of a structural path.
type PathArc struct {
	Gate *netlist.Gate
	Pin  string
}

// Options tune the emulated tool.
type Options struct {
	// BacktrackLimit bounds justification retries per path (default 1000,
	// like the paper's Table 6 runs).
	BacktrackLimit int
	// InputSlew is the assumed primary-input transition time (default
	// 40 ps).
	InputSlew float64
}

func (o Options) withDefaults() Options {
	if o.BacktrackLimit <= 0 {
		o.BacktrackLimit = 1000
	}
	if o.InputSlew <= 0 {
		o.InputSlew = 40e-12
	}
	return o
}

// Tool is the emulated commercial STA.
type Tool struct {
	Circuit *netlist.Circuit
	Tech    *tech.Tech
	Lib     *charlib.Library
	Opts    Options

	arcDelay  map[arcKey]float64 // static per-(gate,pin) delay for ordering
	loadCache map[int]float64
	lastStats Stats
}

// Stats is the instrumentation snapshot of the tool's most recent Run —
// the inputs of the paper's Table 6 comparison (structural candidates
// examined vs. sensitizable, backtrack-limit hits) plus phase timings.
type Stats struct {
	// StructuralCandidates counts structural paths enumerated and
	// examined (step one of the two-step flow).
	StructuralCandidates int64 `json:"structuralCandidates"`
	// Sensitizable counts VerdictTrue outcomes.
	Sensitizable int64 `json:"sensitizable"`
	// DeclaredFalse counts VerdictFalse outcomes (possibly
	// misidentifications — the restricted search space).
	DeclaredFalse int64 `json:"declaredFalse"`
	// BacktrackLimitHits counts VerdictAbandoned outcomes.
	BacktrackLimitHits int64 `json:"backtrackLimitHits"`
	// Backtracks totals justification retries across all paths.
	Backtracks int64 `json:"backtracks"`
	// EnumerateSeconds is the time spent in structural enumeration.
	EnumerateSeconds float64 `json:"enumerateSeconds"`
	// SensitizeSeconds is the time spent attempting sensitization.
	SensitizeSeconds float64 `json:"sensitizeSeconds"`
}

// Stats returns the snapshot of the most recent Run. The tool is
// single-threaded; read it after Run returns.
func (t *Tool) Stats() Stats { return t.lastStats }

type arcKey struct {
	gate int
	pin  string
}

// New builds a tool instance. The library must contain LUT arcs for every
// cell used by the circuit.
func New(c *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, opts Options) *Tool {
	return &Tool{
		Circuit:   c,
		Tech:      tc,
		Lib:       lib,
		Opts:      opts.withDefaults(),
		arcDelay:  map[arcKey]float64{},
		loadCache: map[int]float64{},
	}
}

// Report summarizes a run.
type Report struct {
	// Outcomes lists examined paths in decreasing structural delay.
	Outcomes []Outcome
	// Counts.
	True, False, Abandoned int
}

// Run enumerates the numPaths longest structural paths and sensitizes
// each, mirroring a commercial run with a path-count setting and a
// backtrack limit.
func (t *Tool) Run(numPaths int) (*Report, error) {
	st := Stats{}
	t0 := time.Now()
	paths, err := t.StructuralPaths(numPaths)
	st.EnumerateSeconds = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	st.StructuralCandidates = int64(len(paths))
	rep := &Report{}
	for _, p := range paths {
		out := p
		t1 := time.Now()
		verdict, cube, backtracks := t.sensitize(p.Arcs)
		st.SensitizeSeconds += time.Since(t1).Seconds()
		st.Backtracks += int64(backtracks)
		out.Verdict = verdict
		out.Cube = cube
		out.Backtracks = backtracks
		if verdict == VerdictTrue {
			d, err := t.pathDelay(p.Arcs)
			if err != nil {
				return nil, err
			}
			out.Delay = d
		}
		switch verdict {
		case VerdictTrue:
			rep.True++
		case VerdictFalse:
			rep.False++
		default:
			rep.Abandoned++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	st.Sensitizable = int64(rep.True)
	st.DeclaredFalse = int64(rep.False)
	st.BacktrackLimitHits = int64(rep.Abandoned)
	t.lastStats = st
	return rep, nil
}

// load caches output load per gate.
func (t *Tool) load(g *netlist.Gate) float64 {
	if v, ok := t.loadCache[g.ID]; ok {
		return v
	}
	v := t.Circuit.LoadCap(g.Out, t.Tech)
	t.loadCache[g.ID] = v
	return v
}

// staticArcDelay is the vector-blind per-arc delay used for structural
// ordering: the LUT delay at the gate's real load and the default input
// slew, worst of both edges.
func (t *Tool) staticArcDelay(g *netlist.Gate, pin string) (float64, error) {
	key := arcKey{g.ID, pin}
	if v, ok := t.arcDelay[key]; ok {
		return v, nil
	}
	worst := 0.0
	for _, rising := range []bool{true, false} {
		d, _, err := t.Lib.LUTDelay(g.Cell.Name, pin, rising, t.load(g), t.Opts.InputSlew)
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	t.arcDelay[key] = worst
	return worst, nil
}

// pathDelay chains LUT delay and slew tables along the path for both
// launch edges and returns the worst total — the delay a commercial
// report would print.
func (t *Tool) pathDelay(arcs []PathArc) (float64, error) {
	worst := 0.0
	for _, launchRising := range []bool{true, false} {
		ds, err := t.ArcDelays(arcs, launchRising)
		if err != nil {
			return 0, err
		}
		if ds == nil {
			continue
		}
		total := 0.0
		for _, d := range ds {
			total += d
		}
		if total > worst {
			worst = total
		}
	}
	return worst, nil
}

// ArcDelays returns the per-gate LUT delays along the path for one launch
// edge, chaining slews, or (nil, nil) when the default-vector edge
// chaining breaks down.
func (t *Tool) ArcDelays(arcs []PathArc, launchRising bool) ([]float64, error) {
	out := make([]float64, len(arcs))
	slew := t.Opts.InputSlew
	rising := launchRising
	for i, a := range arcs {
		d, outSlew, err := t.Lib.LUTDelay(a.Gate.Cell.Name, a.Pin, rising, t.load(a.Gate), slew)
		if err != nil {
			return nil, err
		}
		out[i] = d
		slew = outSlew
		// Vector-blind edge chaining: use the default (Case 1) vector to
		// derive the output edge.
		vecs := a.Gate.Cell.Vectors(a.Pin)
		if len(vecs) == 0 {
			return nil, nil
		}
		outRising, ok := a.Gate.Cell.OutputEdge(vecs[0], rising)
		if !ok {
			return nil, nil
		}
		rising = outRising
	}
	return out, nil
}
