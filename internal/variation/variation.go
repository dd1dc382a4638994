// Package variation extends the true-path analysis with environmental
// parameter variation — the extension the paper's Section V.A announces
// as future work ("considering parameter variations on the delay model.
// Given that the tool is designed to rely on analytical delay
// descriptions only the delay model needs to be included"). Exactly so:
// the polynomial model already carries temperature and supply as
// variables (equation (3)), so corner analysis and Monte Carlo need no
// new characterization, only evaluation at different points.
//
// Corner analysis is a search at every operating point, not a replay of
// nominal paths: Points resolves corners for core.Engine.MultiCorner,
// whose per-corner searches find paths that only become critical at a
// corner. Over a set of true paths the package adds MonteCarlo:
// sampling global temperature/supply plus independent per-gate local
// supply noise (IR-drop-like), yielding per-path delay statistics and
// criticality — the probability that a path is the slowest of the set,
// which single-corner analysis misranks when sensitivities differ.
// Per-gate noise cannot be written as a list of operating points, so
// Monte Carlo evaluates the recorded paths through PathDelayAt.
package variation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tpsta/internal/charlib"
	"tpsta/internal/core"
	"tpsta/internal/netlist"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// Corner is one environmental operating point.
type Corner struct {
	Name string
	// Temp in °C; VDDRel is the supply as a fraction of nominal.
	Temp   float64
	VDDRel float64
}

// StandardCorners returns the classic slow/typical/fast trio.
func StandardCorners() []Corner {
	return []Corner{
		{"slow (125°C, 0.9·VDD)", 125, 0.9},
		{"typical (25°C, VDD)", 25, 1.0},
		{"fast (-40°C, 1.1·VDD)", -40, 1.1},
	}
}

// Points resolves corners against a technology's nominal supply into
// the engine's absolute operating points, ready for
// core.Engine.MultiCorner. Corner names pass through unchanged.
func Points(tc *tech.Tech, corners []Corner) []core.OperatingPoint {
	pts := make([]core.OperatingPoint, len(corners))
	for i, c := range corners {
		pts[i] = core.OperatingPoint{Name: c.Name, Temp: c.Temp, VDD: c.VDDRel * tc.VDD}
	}
	return pts
}

// Analyzer evaluates paths under varied conditions. The library must be
// characterized over temperature and supply (charlib.FullGrid or
// similar); with a nominal-only grid the model clamps to nominal and
// variation collapses.
type Analyzer struct {
	Circuit *netlist.Circuit
	Tech    *tech.Tech
	Lib     *charlib.Library
	// InputSlew at primary inputs (default 40 ps).
	InputSlew float64

	loadCache map[int]float64
}

// New builds an analyzer.
func New(c *netlist.Circuit, tc *tech.Tech, lib *charlib.Library) *Analyzer {
	return &Analyzer{Circuit: c, Tech: tc, Lib: lib, InputSlew: 40e-12, loadCache: map[int]float64{}}
}

func (a *Analyzer) load(g *netlist.Gate) float64 {
	if v, ok := a.loadCache[g.ID]; ok {
		return v
	}
	v := a.Circuit.LoadCap(g.Out, a.Tech)
	a.loadCache[g.ID] = v
	return v
}

// PathDelayAt chains the polynomial model along the path's arcs for one
// launch edge with per-gate conditions supplied by env (called once per
// arc index). This is the primitive under MonteCarlo.
func (a *Analyzer) PathDelayAt(p *core.TruePath, rising bool, env func(i int) (temp, vdd float64)) (float64, error) {
	total := 0.0
	slew := a.InputSlew
	edge := rising
	for i, arc := range p.Arcs {
		fo, err := a.Lib.Fo(arc.Gate.Cell.Name, a.load(arc.Gate))
		if err != nil {
			return 0, err
		}
		temp, vdd := env(i)
		d, outSlew, err := a.Lib.GateDelay(arc.Gate.Cell.Name, arc.Pin, arc.Vec.Key(), edge, fo, slew, temp, vdd)
		if err != nil {
			return 0, err
		}
		total += d
		slew = outSlew
		next, ok := arc.Gate.Cell.OutputEdge(arc.Vec, edge)
		if !ok {
			return 0, fmt.Errorf("variation: arc %d of %s does not propagate", i, p)
		}
		edge = next
	}
	return total, nil
}

// launchEdge picks the true edge with the larger nominal delay.
func launchEdge(p *core.TruePath) bool {
	if p.RiseOK && (!p.FallOK || p.RiseDelay >= p.FallDelay) {
		return true
	}
	return false
}

// MCOptions tune the Monte Carlo run.
type MCOptions struct {
	// Samples (default 2000).
	Samples int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// TempMean/TempSigma: global junction temperature distribution
	// (defaults 25 / 15 °C).
	TempMean, TempSigma float64
	// VddSigmaRel: global supply sigma relative to nominal (default 3 %).
	VddSigmaRel float64
	// LocalVddSigmaRel: independent per-gate supply noise (IR drop),
	// relative to nominal (default 1 %).
	LocalVddSigmaRel float64
}

func (o MCOptions) withDefaults() MCOptions {
	if o.Samples <= 0 {
		o.Samples = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if num.IsZero(o.TempMean) {
		o.TempMean = 25
	}
	if num.IsZero(o.TempSigma) {
		o.TempSigma = 15
	}
	if num.IsZero(o.VddSigmaRel) {
		o.VddSigmaRel = 0.03
	}
	if num.IsZero(o.LocalVddSigmaRel) {
		o.LocalVddSigmaRel = 0.01
	}
	return o
}

// PathStats summarizes one path's sampled delay distribution.
type PathStats struct {
	Path             *core.TruePath
	Mean, Std        float64
	P95, P99         float64
	Criticality      float64 // fraction of samples where this path is the slowest
	NominalWorstRank int     // rank by nominal delay (0 = nominal-worst)
}

// MCResult is the Monte Carlo outcome.
type MCResult struct {
	Stats []PathStats // sorted by Mean descending
	// RankFlips counts samples whose slowest path differs from the
	// nominal-worst path — the misranking single-point analysis commits.
	RankFlips int
	Samples   int
}

// MonteCarlo samples environmental conditions and evaluates every path
// under each sample.
func (a *Analyzer) MonteCarlo(paths []*core.TruePath, opts MCOptions) (*MCResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("variation: no paths")
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	nominalWorst := 0
	for i, p := range paths {
		if p.WorstDelay() > paths[nominalWorst].WorstDelay() {
			nominalWorst = i
		}
	}

	samples := make([][]float64, len(paths))
	for i := range samples {
		samples[i] = make([]float64, opts.Samples)
	}
	wins := make([]int, len(paths))
	flips := 0
	for s := 0; s < opts.Samples; s++ {
		temp := opts.TempMean + opts.TempSigma*rng.NormFloat64()
		vddGlobal := a.Tech.VDD * (1 + opts.VddSigmaRel*rng.NormFloat64())
		// Per-gate local supply noise is drawn once per sample and shared
		// by every path that traverses the gate, so criticality reflects
		// genuinely common-mode variation.
		gateVdd := map[int]float64{}
		worst, worstIdx := math.Inf(-1), 0
		for i, p := range paths {
			arcs := p.Arcs
			d, err := a.PathDelayAt(p, launchEdge(p), func(ai int) (float64, float64) {
				id := arcs[ai].Gate.ID
				v, ok := gateVdd[id]
				if !ok {
					v = vddGlobal * (1 + opts.LocalVddSigmaRel*rng.NormFloat64())
					gateVdd[id] = v
				}
				return temp, v
			})
			if err != nil {
				return nil, err
			}
			samples[i][s] = d
			if d > worst {
				worst, worstIdx = d, i
			}
		}
		wins[worstIdx]++
		if worstIdx != nominalWorst {
			flips++
		}
	}

	res := &MCResult{Samples: opts.Samples, RankFlips: flips}
	for i, p := range paths {
		xs := samples[i]
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		varsum := 0.0
		for _, x := range xs {
			varsum += (x - mean) * (x - mean)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		st := PathStats{
			Path:        p,
			Mean:        mean,
			Std:         math.Sqrt(varsum / float64(len(xs))),
			P95:         quantile(sorted, 0.95),
			P99:         quantile(sorted, 0.99),
			Criticality: float64(wins[i]) / float64(opts.Samples),
		}
		if i == nominalWorst {
			st.NominalWorstRank = 0
		} else {
			st.NominalWorstRank = 1
		}
		res.Stats = append(res.Stats, st)
	}
	sort.SliceStable(res.Stats, func(i, j int) bool { return res.Stats[i].Mean > res.Stats[j].Mean })
	return res, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
