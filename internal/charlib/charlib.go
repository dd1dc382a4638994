// Package charlib characterizes a standard-cell library against the
// electrical simulator: for every (cell, pin, sensitization vector, edge)
// timing arc it sweeps equivalent fanout, input transition time and —
// optionally — temperature and supply, then fits
//
//   - the paper's polynomial model (internal/polyfit) per arc, vector
//     included, and
//   - the baseline NLDM-style LUT (internal/lut) per (cell, pin, edge)
//     using only the default (Case 1, easiest-to-justify) vector — the
//     behaviour the paper attributes to the commercial tool.
//
// The resulting Library serializes to JSON and answers delay/slew queries
// for both models.
package charlib

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"tpsta/internal/cell"
	"tpsta/internal/lut"
	"tpsta/internal/num"
	"tpsta/internal/obs"
	"tpsta/internal/polyfit"
	"tpsta/internal/spice"
	"tpsta/internal/tech"
)

// Grid is a characterization sweep.
type Grid struct {
	// Fo lists equivalent-fanout points (output load = Fo · CinRef(cell)).
	Fo []float64 `json:"fo"`
	// Tin lists input 10–90 % transition times in seconds.
	Tin []float64 `json:"tin"`
	// Temp lists junction temperatures in °C.
	Temp []float64 `json:"temp"`
	// VDDRel lists supply multipliers relative to the nominal VDD.
	VDDRel []float64 `json:"vddRel"`
}

// NominalGrid sweeps load and slew at nominal temperature and supply —
// the conditions of the paper's Tables 3–9.
func NominalGrid() Grid {
	return Grid{
		Fo:     []float64{0.5, 1, 2, 4, 8, 16},
		Tin:    []float64{10e-12, 30e-12, 80e-12, 160e-12, 300e-12},
		Temp:   []float64{25},
		VDDRel: []float64{1},
	}
}

// FullGrid adds temperature and supply sweeps, exercising all four
// variables of the paper's equation (3).
func FullGrid() Grid {
	g := NominalGrid()
	g.Temp = []float64{-40, 25, 125}
	g.VDDRel = []float64{0.9, 1.0, 1.1}
	return g
}

// TestGrid is a deliberately small sweep for unit tests.
func TestGrid() Grid {
	return Grid{
		Fo:     []float64{0.5, 2, 8, 16},
		Tin:    []float64{20e-12, 80e-12, 250e-12},
		Temp:   []float64{25},
		VDDRel: []float64{1},
	}
}

// validate checks the grid is usable: at least two load and slew points
// (the LUT needs a 2×2 body) and the nominal corner present (the LUT is
// characterized at nominal conditions).
func (g Grid) validate() error {
	if len(g.Fo) < 2 || len(g.Tin) < 2 {
		return fmt.Errorf("charlib: grid needs >=2 Fo and Tin points")
	}
	hasT, hasV := false, false
	for _, t := range g.Temp {
		if num.Eq(t, 25) {
			hasT = true
		}
	}
	for _, v := range g.VDDRel {
		if num.Eq(v, 1) {
			hasV = true
		}
	}
	if !hasT || !hasV {
		return fmt.Errorf("charlib: grid must include the nominal corner (T=25, VDDRel=1)")
	}
	return nil
}

// ArcModel is the fitted polynomial pair of one timing arc.
type ArcModel struct {
	Delay *polyfit.Model `json:"delay"`
	Slew  *polyfit.Model `json:"slew"`
	// FitErr is the maximum relative fitting error of the delay model over
	// the characterization samples.
	FitErr float64 `json:"fitErr"`
}

// Library is a characterized technology library.
type Library struct {
	// TechName names the technology card the library was built against.
	TechName string `json:"tech"`
	// Grid records the sweep used.
	Grid Grid `json:"grid"`
	// CinRef maps cell name to the reference input capacitance used in
	// the equivalent-fanout definition (mean over input pins).
	CinRef map[string]float64 `json:"cinRef"`
	// PinCap maps "cell/pin" to that pin's input capacitance.
	PinCap map[string]float64 `json:"pinCap"`
	// Poly maps arc keys "cell/pin/vectorKey/edge" to polynomial models.
	Poly map[string]*ArcModel `json:"poly"`
	// LUT maps "cell/pin/edge" to the baseline NLDM tables (characterized
	// on the default vector only).
	LUT map[string]*lut.Arc `json:"lut"`

	// Stats is the instrumentation snapshot of the Characterize run that
	// built this library (zero for libraries read back with Load).
	Stats CharStats `json:"-"`

	// Allocation-free query indexes, built lazily (not serialized).
	idxOnce sync.Once
	polyIdx map[arcID]*ArcModel
	lutIdx  map[lutID]*lut.Arc
}

// arcID and lutID are struct map keys so hot-path queries avoid building
// key strings.
type arcID struct {
	cell, pin, vec string
	rising         bool
}

type lutID struct {
	cell, pin string
	rising    bool
}

// buildIndex populates the query indexes.
func (l *Library) buildIndex() {
	l.polyIdx = make(map[arcID]*ArcModel, len(l.Poly))
	for k, m := range l.Poly {
		parts := strings.Split(k, "/")
		if len(parts) != 4 {
			continue
		}
		l.polyIdx[arcID{parts[0], parts[1], parts[2], parts[3] == "R"}] = m
	}
	l.lutIdx = make(map[lutID]*lut.Arc, len(l.LUT))
	for k, a := range l.LUT {
		parts := strings.Split(k, "/")
		if len(parts) != 3 {
			continue
		}
		l.lutIdx[lutID{parts[0], parts[1], parts[2] == "R"}] = a
	}
}

// CharStats is the instrumentation snapshot of one Characterize run.
type CharStats struct {
	// Arcs counts timing arcs characterized (one per cell/pin/vector/edge).
	Arcs int `json:"arcs"`
	// Workers is the sweep parallelism used.
	Workers int `json:"workers"`
	// WallSeconds is the end-to-end Characterize wall time.
	WallSeconds float64 `json:"wallSeconds"`
	// SimSeconds totals time inside the electrical sweeps across workers.
	SimSeconds float64 `json:"simSeconds"`
	// FitSeconds totals time inside the polynomial regressions across
	// workers.
	FitSeconds float64 `json:"fitSeconds"`
	// BusySeconds totals worker-occupied time (per-arc durations summed).
	BusySeconds float64 `json:"busySeconds"`
	// Utilization is BusySeconds / (Workers × WallSeconds) — how well the
	// sweep kept its workers fed.
	Utilization float64 `json:"utilization"`
	// FitSolves counts least-squares solves (regression iterations of
	// the paper's recursive fitting procedure).
	FitSolves int64 `json:"fitSolves"`
	// CappedOperatingPoints counts the DC operating points (each
	// sweep's start and final-level points) whose solve stopped at its
	// iteration cap without converging. Their transients start, or
	// their settling checks read, from the last iterate.
	CappedOperatingPoints int `json:"cappedOperatingPoints"`
	// SlowestArc names the arc that took longest, with its duration.
	SlowestArc        string  `json:"slowestArc"`
	SlowestArcSeconds float64 `json:"slowestArcSeconds"`
}

// Options tune characterization.
type Options struct {
	// Cells restricts characterization to the named cells (nil = all).
	Cells []string
	// Target is the polynomial fit error target (default 0.02).
	Target float64
	// MaxOrder caps polynomial orders (default 4).
	MaxOrder int
	// Workers sets sweep parallelism (default: GOMAXPROCS).
	Workers int
}

// PolyKey builds the arc key for the polynomial map.
func PolyKey(cellName, pin, vectorKey string, rising bool) string {
	return cellName + "/" + pin + "/" + vectorKey + "/" + edge(rising)
}

// LUTKey builds the arc key for the baseline map.
func LUTKey(cellName, pin string, rising bool) string {
	return cellName + "/" + pin + "/" + edge(rising)
}

func edge(rising bool) string {
	if rising {
		return "R"
	}
	return "F"
}

// ModelVars is the variable order of every fitted polynomial, matching
// the paper's equation (3).
var ModelVars = []string{"Fo", "Tin", "T", "VDD"}

// Characterize sweeps every timing arc of lib under technology tc.
func Characterize(tc *tech.Tech, lib *cell.Lib, grid Grid, opts Options) (*Library, error) {
	if opts.Target <= 0 {
		opts.Target = 0.02
	}
	if opts.MaxOrder <= 0 {
		opts.MaxOrder = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if err := grid.validate(); err != nil {
		return nil, err
	}
	cells := lib.Cells()
	if opts.Cells != nil {
		cells = cells[:0:0]
		for _, name := range opts.Cells {
			c, err := lib.Get(name)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}

	out := &Library{
		TechName: tc.Name,
		Grid:     grid,
		CinRef:   map[string]float64{},
		PinCap:   map[string]float64{},
		Poly:     map[string]*ArcModel{},
		LUT:      map[string]*lut.Arc{},
	}
	for _, c := range cells {
		sum := 0.0
		for _, pin := range c.Inputs {
			pc := c.InputCap(tc, pin)
			out.PinCap[c.Name+"/"+pin] = pc
			sum += pc
		}
		out.CinRef[c.Name] = sum / float64(len(c.Inputs))
	}

	type job struct {
		c      *cell.Cell
		vec    cell.Vector
		rising bool
	}
	var jobs []job
	for _, c := range cells {
		for _, pin := range c.Inputs {
			for _, vec := range c.Vectors(pin) {
				jobs = append(jobs, job{c, vec, true}, job{c, vec, false})
			}
		}
	}

	type result struct {
		key     string
		lutKey  string
		isCase1 bool
		model   *ArcModel
		arc     *lut.Arc
		capped  int
		dur     time.Duration
		err     error
	}
	results := make([]result, len(jobs))
	tm := &charTimers{}
	wall := time.Now()
	solves0 := polyfit.FitSolves()
	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Workers)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j := jobs[i]
			r := &results[i]
			r.key = PolyKey(j.c.Name, j.vec.Pin, j.vec.Key(), j.rising)
			r.lutKey = LUTKey(j.c.Name, j.vec.Pin, j.rising)
			r.isCase1 = j.vec.Case == 1
			t0 := time.Now()
			r.model, r.arc, r.capped, r.err = characterizeArc(tc, j.c, j.vec, j.rising, grid, out.CinRef[j.c.Name], opts, tm)
			r.dur = time.Since(t0)
		}(i)
	}
	wg.Wait()

	st := CharStats{
		Arcs:        len(jobs),
		Workers:     opts.Workers,
		WallSeconds: time.Since(wall).Seconds(),
		SimSeconds:  tm.sim.Seconds(),
		FitSeconds:  tm.fit.Seconds(),
		FitSolves:   polyfit.FitSolves() - solves0,
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out.Poly[r.key] = r.model
		if r.isCase1 {
			out.LUT[r.lutKey] = r.arc
		}
		st.CappedOperatingPoints += r.capped
		st.BusySeconds += r.dur.Seconds()
		if s := r.dur.Seconds(); s > st.SlowestArcSeconds {
			st.SlowestArc, st.SlowestArcSeconds = r.key, s
		}
	}
	if st.Workers > 0 && st.WallSeconds > 0 {
		st.Utilization = st.BusySeconds / (float64(st.Workers) * st.WallSeconds)
	}
	out.Stats = st
	return out, nil
}

// charTimers accumulates sim and regression time across sweep workers.
type charTimers struct {
	sim, fit obs.Timer
}

// lutIndices thins an axis of n points down to the sparse sub-grid used
// for the baseline LUT: endpoints plus every other interior point. The
// commercial tool's NLDM tables are coarse fixed-size grids, while the
// analytical model is fitted on the full characterization sweep — one of
// the accuracy gaps the paper measures.
func lutIndices(n int) []int {
	var out []int
	for i := 0; i < n; i += 2 {
		out = append(out, i)
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// characterizeArc sweeps one arc and fits both model types, reporting
// its sim and regression time into tm. capped counts the sweeps'
// operating points whose DC solve hit its iteration cap.
func characterizeArc(tc *tech.Tech, c *cell.Cell, vec cell.Vector, rising bool, grid Grid, cinRef float64, opts Options, tm *charTimers) (model *ArcModel, arc *lut.Arc, capped int, err error) {
	var delaySamples, slewSamples []polyfit.Sample
	// LUT body at nominal conditions only (index [load][slew]).
	nomDelay := make([][]float64, len(grid.Fo))
	nomSlew := make([][]float64, len(grid.Fo))
	loads := make([]float64, len(grid.Fo))
	for i := range nomDelay {
		nomDelay[i] = make([]float64, len(grid.Tin))
		nomSlew[i] = make([]float64, len(grid.Tin))
		loads[i] = grid.Fo[i] * cinRef
	}
	stopSim := tm.sim.Start()
	for _, temp := range grid.Temp {
		for _, vr := range grid.VDDRel {
			vdd := vr * tc.VDD
			fail := func(err error) (*ArcModel, *lut.Arc, int, error) {
				return nil, nil, 0, fmt.Errorf("charlib: %s/%s case %d %s at T=%g VDD=%g: %w",
					c.Name, vec.Pin, vec.Case, edge(rising), temp, vdd, err)
			}
			// One sweep per corner: the arc's network, operating points
			// and step buffers serve every (Fo, Tin) point.
			sw, err := spice.NewAt(tc, temp, vdd).NewSweep(c, vec, rising)
			if err != nil {
				return fail(err)
			}
			nominal := num.Eq(temp, 25) && num.Eq(vr, 1)
			for fi, fo := range grid.Fo {
				for si, tin := range grid.Tin {
					r, err := sw.Run(tin, fo*cinRef)
					if err != nil {
						return fail(err)
					}
					x := []float64{fo, tin, temp, vdd}
					delaySamples = append(delaySamples, polyfit.Sample{X: x, Y: r.Delay})
					slewSamples = append(slewSamples, polyfit.Sample{X: x, Y: r.OutputSlew})
					if nominal {
						nomDelay[fi][si] = r.Delay
						// The baseline's tables store the commercial
						// 20–80 %-derived slew figure; the long settling
						// tails it misses are one of the correlation
						// gaps the paper's Tables 7–9 measure.
						nomSlew[fi][si] = r.OutputSlew2080
					}
				}
			}
			capped += sw.CappedOperatingPoints()
		}
	}

	stopSim()

	auto := polyfit.AutoOptions{Target: opts.Target, MaxOrder: opts.MaxOrder}
	stopFit := tm.fit.Start()
	dm, dErr, err := polyfit.FitAuto(ModelVars, delaySamples, auto)
	if err != nil {
		stopFit()
		return nil, nil, 0, fmt.Errorf("charlib: delay fit for %s/%s: %w", c.Name, vec.Pin, err)
	}
	sm, _, err := polyfit.FitAuto(ModelVars, slewSamples, auto)
	stopFit()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("charlib: slew fit for %s/%s: %w", c.Name, vec.Pin, err)
	}

	// Thin the LUT body to the sparse NLDM-style sub-grid.
	li := lutIndices(len(grid.Fo))
	sj := lutIndices(len(grid.Tin))
	lutLoads := make([]float64, len(li))
	for a, i := range li {
		lutLoads[a] = loads[i]
	}
	lutSlews := make([]float64, len(sj))
	for b, j := range sj {
		lutSlews[b] = grid.Tin[j]
	}
	thin := func(body [][]float64) [][]float64 {
		out := make([][]float64, len(li))
		for a, i := range li {
			out[a] = make([]float64, len(sj))
			for b, j := range sj {
				out[a][b] = body[i][j]
			}
		}
		return out
	}
	dTab, err := lut.New(lutLoads, lutSlews, thin(nomDelay))
	if err != nil {
		return nil, nil, 0, err
	}
	sTab, err := lut.New(append([]float64(nil), lutLoads...), append([]float64(nil), lutSlews...), thin(nomSlew))
	if err != nil {
		return nil, nil, 0, err
	}
	return &ArcModel{Delay: dm, Slew: sm, FitErr: dErr}, &lut.Arc{Delay: dTab, Slew: sTab}, capped, nil
}

// GateDelay evaluates the polynomial model of the given arc. fo is the
// equivalent fanout, tin the input transition time.
func (l *Library) GateDelay(cellName, pin, vectorKey string, rising bool, fo, tin, temp, vdd float64) (delay, slew float64, err error) {
	l.idxOnce.Do(l.buildIndex)
	m, ok := l.polyIdx[arcID{cellName, pin, vectorKey, rising}]
	if !ok {
		return 0, 0, fmt.Errorf("charlib: no polynomial arc %s", PolyKey(cellName, pin, vectorKey, rising))
	}
	x := [4]float64{fo, tin, temp, vdd}
	return m.Delay.Eval(x[:]), m.Slew.Eval(x[:]), nil
}

// WorstGateDelay returns the largest GateDelay delay, and its slew,
// over every sensitization vector of cell c's input pin and both launch
// edges; the first maximum wins ties. The delay is -Inf when the pin
// has no vector.
func (l *Library) WorstGateDelay(c *cell.Cell, pin string, fo, tin, temp, vdd float64) (delay, slew float64, err error) {
	delay = math.Inf(-1)
	for _, vec := range c.Vectors(pin) {
		for _, rising := range []bool{true, false} {
			d, s, err := l.GateDelay(c.Name, pin, vec.Key(), rising, fo, tin, temp, vdd)
			if err != nil {
				return 0, 0, err
			}
			if d > delay {
				delay, slew = d, s
			}
		}
	}
	return delay, slew, nil
}

// Arc returns the fitted polynomial models of one timing arc, or false
// when the library does not characterize it. It shares the lazily
// built struct-keyed index with GateDelay; the core engine uses it to
// resolve every arc of a circuit once and then query by integer index
// (the delay-kernel layer), keeping string keys out of the hot path.
func (l *Library) Arc(cellName, pin, vectorKey string, rising bool) (*ArcModel, bool) {
	l.idxOnce.Do(l.buildIndex)
	m, ok := l.polyIdx[arcID{cellName, pin, vectorKey, rising}]
	return m, ok
}

// LUTDelay evaluates the baseline tables of the given arc. load is the
// absolute output capacitance in farads.
func (l *Library) LUTDelay(cellName, pin string, rising bool, load, tin float64) (delay, slew float64, err error) {
	l.idxOnce.Do(l.buildIndex)
	arc, ok := l.lutIdx[lutID{cellName, pin, rising}]
	if !ok {
		return 0, 0, fmt.Errorf("charlib: no LUT arc %s", LUTKey(cellName, pin, rising))
	}
	return arc.Delay.Lookup(load, tin), arc.Slew.Lookup(load, tin), nil
}

// Fo converts an absolute load into the equivalent fanout of cellName.
func (l *Library) Fo(cellName string, load float64) (float64, error) {
	cin, ok := l.CinRef[cellName]
	if !ok || cin <= 0 {
		return 0, fmt.Errorf("charlib: no CinRef for %s", cellName)
	}
	return load / cin, nil
}

// InputCap returns the characterized input capacitance of cell/pin.
func (l *Library) InputCap(cellName, pin string) (float64, error) {
	v, ok := l.PinCap[cellName+"/"+pin]
	if !ok {
		return 0, fmt.Errorf("charlib: no pin cap for %s/%s", cellName, pin)
	}
	return v, nil
}

// ArcKeys lists the polynomial arc keys in sorted order (for reports).
func (l *Library) ArcKeys() []string {
	return sortedKeys(l.Poly)
}

// WorstFitErr returns the largest polynomial delay-fit error across arcs,
// with the offending arc key.
func (l *Library) WorstFitErr() (string, float64) {
	worstKey, worst := "", 0.0
	for k, m := range l.Poly {
		if m.FitErr > worst {
			worstKey, worst = k, m.FitErr
		}
	}
	return worstKey, worst
}

// Save writes the library as JSON.
func (l *Library) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l)
}

// Load reads a library back and validates it (see validate): a
// malformed arc fails here, naming the arc, instead of panicking or
// timing wrongly at its first query.
func Load(r io.Reader) (*Library, error) {
	var l Library
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, err
	}
	if l.TechName == "" || len(l.Poly) == 0 {
		return nil, fmt.Errorf("charlib: loaded library is empty")
	}
	if err := l.validate(); err != nil {
		return nil, err
	}
	return &l, nil
}

// validate checks what the delay queries assume of every arc: both
// polynomial models over ModelVars in order (GateDelay evaluates them
// positionally) and well shaped (polyfit.Model.Validate), both LUT
// tables well shaped (lut.Table.Validate), and every CinRef positive
// and finite. Arcs are checked in key order, so the error names the
// same arc every time.
func (l *Library) validate() error {
	for _, k := range l.ArcKeys() {
		m := l.Poly[k]
		if m == nil || m.Delay == nil || m.Slew == nil {
			return fmt.Errorf("charlib: arc %s: missing delay or slew model", k)
		}
		for _, pm := range []struct {
			name  string
			model *polyfit.Model
		}{{"delay", m.Delay}, {"slew", m.Slew}} {
			if !slices.Equal(pm.model.Vars, ModelVars) {
				return fmt.Errorf("charlib: arc %s: %s model variables %v, want %v", k, pm.name, pm.model.Vars, ModelVars)
			}
			if err := pm.model.Validate(); err != nil {
				return fmt.Errorf("charlib: arc %s: %s model: %w", k, pm.name, err)
			}
		}
	}
	for _, k := range sortedKeys(l.LUT) {
		a := l.LUT[k]
		if a == nil || a.Delay == nil || a.Slew == nil {
			return fmt.Errorf("charlib: LUT arc %s: missing delay or slew table", k)
		}
		if err := a.Delay.Validate(); err != nil {
			return fmt.Errorf("charlib: LUT arc %s: delay table: %w", k, err)
		}
		if err := a.Slew.Validate(); err != nil {
			return fmt.Errorf("charlib: LUT arc %s: slew table: %w", k, err)
		}
	}
	for _, name := range sortedKeys(l.CinRef) {
		if c := l.CinRef[name]; !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("charlib: cell %s: CinRef %g is not positive and finite", name, c)
		}
	}
	return nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String summarizes the library.
func (l *Library) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "charlib %s: %d poly arcs, %d lut arcs, %d cells",
		l.TechName, len(l.Poly), len(l.LUT), len(l.CinRef))
	return b.String()
}
