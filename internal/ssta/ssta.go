// Package ssta implements first-order canonical-form statistical static
// timing analysis — the "parameter variations on the delay model"
// extension the paper announces as future work (its reference [3] is
// Blaauw's SSTA survey). Each timing arc's delay is modelled as
//
//	D = d0 · (1 + βg·G + βl·L)
//
// with G a single standard-normal global process variable shared by every
// gate and L an independent per-gate local variable. Arrival times are
// propagated as canonical triples (mean, global sensitivity, RSS'd local
// sigma); sums are exact and the max of two arrivals uses Clark's moment
// matching with the correlation induced by the shared global term.
//
// The result gives every net a Gaussian arrival (mean, sigma), the
// circuit a delay distribution, and therefore a parametric yield curve —
// all validated against Monte Carlo sampling of the very same delay model
// (see the tests and example).
package ssta

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/num"
	"tpsta/internal/tech"
)

// Canonical is a first-order statistical arrival time:
//
//	A = Mean + Global·G + Local·L_A
//
// where G is the shared global variable and L_A an independent
// standard-normal specific to this arrival (locals of merged paths are
// kept as a single RSS'd term — the usual tractability simplification).
type Canonical struct {
	Mean   float64
	Global float64
	Local  float64
}

// Sigma is the total standard deviation.
func (c Canonical) Sigma() float64 {
	return math.Sqrt(c.Global*c.Global + c.Local*c.Local)
}

// Quantile returns mean + z·sigma.
func (c Canonical) Quantile(z float64) float64 { return c.Mean + z*c.Sigma() }

// addDelay extends an arrival by one arc delay (exact for sums).
func (c Canonical) addDelay(d0, betaG, betaL float64) Canonical {
	return Canonical{
		Mean:   c.Mean + d0,
		Global: c.Global + d0*betaG,
		Local:  math.Sqrt(c.Local*c.Local + d0*betaL*d0*betaL),
	}
}

// correlation between two canonicals through the shared global term.
func correlation(a, b Canonical) float64 {
	sa, sb := a.Sigma(), b.Sigma()
	if num.IsZero(sa) || num.IsZero(sb) {
		return 0
	}
	return a.Global * b.Global / (sa * sb)
}

// normPDF and normCDF are the standard normal density and distribution.
func normPDF(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// maxCanonical applies Clark's approximation: the max of two correlated
// Gaussians re-projected onto the canonical form, preserving the mean,
// variance, and global covariance of the exact max moments.
func maxCanonical(a, b Canonical) Canonical {
	sa, sb := a.Sigma(), b.Sigma()
	rho := correlation(a, b)
	theta := math.Sqrt(math.Max(sa*sa+sb*sb-2*rho*sa*sb, 1e-30))
	alpha := (a.Mean - b.Mean) / theta
	phi := normPDF(alpha)
	Phi := normCDF(alpha)

	// Clark's first and second moments of max(A,B).
	m1 := a.Mean*Phi + b.Mean*(1-Phi) + theta*phi
	m2 := (a.Mean*a.Mean+sa*sa)*Phi + (b.Mean*b.Mean+sb*sb)*(1-Phi) + (a.Mean+b.Mean)*theta*phi
	variance := math.Max(m2-m1*m1, 0)

	// Global sensitivity of the max: linear blend by tightness
	// probability (the standard canonical reconstruction).
	g := a.Global*Phi + b.Global*(1-Phi)
	localVar := math.Max(variance-g*g, 0)
	return Canonical{Mean: m1, Global: g, Local: math.Sqrt(localVar)}
}

// Options configure the analysis.
type Options struct {
	// BetaGlobal and BetaLocal are the fractional delay sigmas of the
	// global and per-gate local process terms (defaults 0.05 and 0.03).
	BetaGlobal, BetaLocal float64
	// InputSlew, Temp, VDD select the nominal arc-delay query point
	// (defaults 40 ps, 25 °C, nominal supply).
	InputSlew float64
	Temp, VDD float64
}

func (o Options) withDefaults(tc *tech.Tech) Options {
	if num.IsZero(o.BetaGlobal) {
		o.BetaGlobal = 0.05
	}
	if num.IsZero(o.BetaLocal) {
		o.BetaLocal = 0.03
	}
	if o.InputSlew <= 0 {
		o.InputSlew = 40e-12
	}
	if num.IsZero(o.Temp) {
		o.Temp = 25
	}
	if num.IsZero(o.VDD) {
		o.VDD = tc.VDD
	}
	return o
}

// Analyzer runs statistical STA over one circuit.
type Analyzer struct {
	Circuit *netlist.Circuit
	Tech    *tech.Tech
	Lib     *charlib.Library
	Opts    Options

	// nominal per-(gate,pin) delays, resolved once.
	arcD0 map[arcKey]float64
	topo  []*netlist.Gate
}

type arcKey struct {
	gate int
	pin  string
}

// New prepares an analyzer (resolving nominal arc delays up front).
func New(c *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, opts Options) (*Analyzer, error) {
	a := &Analyzer{Circuit: c, Tech: tc, Lib: lib, Opts: opts.withDefaults(tc), arcD0: map[arcKey]float64{}}
	topo, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	a.topo = topo
	for _, g := range topo {
		load := c.LoadCap(g.Out, tc)
		fo, err := lib.Fo(g.Cell.Name, load)
		if err != nil {
			return nil, err
		}
		for _, pin := range g.Cell.Inputs {
			worst, _, err := lib.WorstGateDelay(g.Cell, pin, fo, a.Opts.InputSlew, a.Opts.Temp, a.Opts.VDD)
			if err != nil {
				return nil, err
			}
			if worst <= 0 {
				return nil, fmt.Errorf("ssta: arc %s/%s has no delay", g.Name, pin)
			}
			a.arcD0[arcKey{g.ID, pin}] = worst
		}
	}
	return a, nil
}

// Report is the statistical result.
type Report struct {
	// Arrivals maps net name to its canonical arrival.
	Arrivals map[string]Canonical
	// Worst is the statistical max over all primary outputs.
	Worst Canonical
	// WorstMeanOutput names the output with the largest mean arrival.
	WorstMeanOutput string
}

// Run propagates canonical arrivals through the circuit.
func (a *Analyzer) Run() (*Report, error) {
	arr := make(map[string]Canonical, len(a.Circuit.Nodes))
	for _, in := range a.Circuit.Inputs {
		arr[in.Name] = Canonical{}
	}
	for _, g := range a.topo {
		first := true
		var acc Canonical
		for _, pin := range g.Cell.Inputs {
			in, ok := arr[g.Fanin[pin].Name]
			if !ok {
				return nil, fmt.Errorf("ssta: fanin %s unprocessed", g.Fanin[pin].Name)
			}
			cand := in.addDelay(a.arcD0[arcKey{g.ID, pin}], a.Opts.BetaGlobal, a.Opts.BetaLocal)
			if first {
				acc, first = cand, false
			} else {
				acc = maxCanonical(acc, cand)
			}
		}
		arr[g.Out.Name] = acc
	}
	rep := &Report{Arrivals: arr}
	first := true
	for _, out := range a.Circuit.Outputs {
		c := arr[out.Name]
		if first {
			rep.Worst, rep.WorstMeanOutput, first = c, out.Name, false
			continue
		}
		if c.Mean > rep.Worst.Mean {
			rep.WorstMeanOutput = out.Name
		}
		rep.Worst = maxCanonical(rep.Worst, c)
	}
	return rep, nil
}

// Yield returns the estimated probability that the circuit meets the
// given period: P(worst arrival ≤ period).
func (rep *Report) Yield(period float64) float64 {
	s := rep.Worst.Sigma()
	if num.IsZero(s) {
		if rep.Worst.Mean <= period {
			return 1
		}
		return 0
	}
	return normCDF((period - rep.Worst.Mean) / s)
}

// MonteCarlo samples the same per-arc delay model (one global draw plus
// independent per-gate locals per sample) and propagates deterministic
// worst arrivals — the reference the canonical propagation is validated
// against. Returns the sampled worst-arrival values, sorted.
func (a *Analyzer) MonteCarlo(samples int, seed int64) ([]float64, error) {
	if samples <= 0 {
		samples = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, samples)
	arr := make(map[string]float64, len(a.Circuit.Nodes))
	for s := 0; s < samples; s++ {
		G := rng.NormFloat64()
		for _, in := range a.Circuit.Inputs {
			arr[in.Name] = 0
		}
		for _, g := range a.topo {
			L := rng.NormFloat64()
			scale := 1 + a.Opts.BetaGlobal*G + a.Opts.BetaLocal*L
			if scale < 0.05 {
				scale = 0.05
			}
			worst := math.Inf(-1)
			for _, pin := range g.Cell.Inputs {
				if t := arr[g.Fanin[pin].Name] + a.arcD0[arcKey{g.ID, pin}]*scale; t > worst {
					worst = t
				}
			}
			arr[g.Out.Name] = worst
		}
		w := math.Inf(-1)
		for _, o := range a.Circuit.Outputs {
			if arr[o.Name] > w {
				w = arr[o.Name]
			}
		}
		out[s] = w
	}
	sort.Float64s(out)
	return out, nil
}
