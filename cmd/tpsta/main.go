// Command tpsta runs the true-path STA engine on a circuit: it loads (or
// characterizes) a technology library, enumerates true paths with
// exhaustive sensitization-vector exploration, and prints the K worst
// paths with their vectors, input cubes and polynomial-model delays.
//
// Usage:
//
//	tpsta -circuit c432 -tech 130nm -k 10
//	tpsta -bench my.bench -lib lib130.json -k 25 -complex-only
//	tpsta -verilog my.v -outputs z1,z2 -report          # cone + per-gate report
//	tpsta -circuit c880 -robust -tests tests.txt        # robust two-pattern tests
//	tpsta -circuit c17 -sdf c17.sdf                     # SDF annotation only
//	tpsta -circuit c432 -dot crit.dot                   # Graphviz with worst path
//	tpsta -circuit c432 -stats run.json -progress       # machine-readable run report
//	tpsta -circuit c432 -trace run.jsonl -pprof :6060   # search trace + live profiling
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/netlist"
	"tpsta/internal/obs"
	"tpsta/internal/report"
	"tpsta/internal/sdf"
	"tpsta/internal/tech"
	"tpsta/internal/variation"
)

// config carries every CLI option through the run.
type config struct {
	circuitName string
	benchFile   string
	verilogFile string
	sdfFile     string
	testsFile   string
	dotFile     string
	coneOutputs string
	detail      bool
	robust      bool
	techName    string
	libFile     string
	k           int
	workers     int
	complexOnly bool
	maxSteps    int64
	quickChar   bool
	structural  bool
	temp        float64 // -temp: junction temperature in °C
	vdd         float64 // -vdd: supply in volts (0 = technology nominal)
	corners     string  // -corners: multi-corner sweep specs

	statsFile   string // -stats: machine-readable run report (JSON)
	traceFile   string // -trace: structured search events (JSONL)
	traceSample int64  // -trace-sample: record every Nth search step
	progress    bool   // -progress: periodic stderr progress line
	pprofAddr   string // -pprof: expvar + pprof HTTP endpoint
	metricsAddr string // -metrics-addr: OpenMetrics /metrics endpoint
}

func main() {
	var cfg config
	flag.StringVar(&cfg.circuitName, "circuit", "c17", "built-in circuit name (see -list)")
	flag.StringVar(&cfg.benchFile, "bench", "", "path to a .bench netlist (overrides -circuit)")
	flag.StringVar(&cfg.verilogFile, "verilog", "", "path to a structural Verilog netlist (overrides -circuit)")
	flag.StringVar(&cfg.sdfFile, "sdf", "", "write SDF delay annotations for the circuit and exit")
	flag.StringVar(&cfg.testsFile, "tests", "", "also write two-pattern path-delay tests for the reported paths")
	flag.StringVar(&cfg.dotFile, "dot", "", "also write a Graphviz view with the worst path highlighted")
	flag.BoolVar(&cfg.detail, "report", false, "print a per-gate timing report for each path")
	flag.StringVar(&cfg.coneOutputs, "outputs", "", "comma-separated outputs: restrict analysis to their fanin cone")
	flag.BoolVar(&cfg.robust, "robust", false, "conservatively robust sensitization (steady side inputs)")
	flag.StringVar(&cfg.techName, "tech", "130nm", "technology: 130nm, 90nm or 65nm")
	flag.StringVar(&cfg.libFile, "lib", "", "characterized library JSON (default: characterize now)")
	flag.IntVar(&cfg.k, "k", 10, "number of worst paths to report")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel search workers (0 = all CPUs, 1 = serial)")
	flag.BoolVar(&cfg.complexOnly, "complex-only", false, "report only paths through multi-vector gates")
	flag.Int64Var(&cfg.maxSteps, "max-steps", 2_000_000, "search budget (sensitization attempts)")
	flag.BoolVar(&cfg.quickChar, "quick-char", false, "characterize on the reduced grid (faster startup)")
	flag.Float64Var(&cfg.temp, "temp", 25, "junction temperature in °C")
	flag.Float64Var(&cfg.vdd, "vdd", 0, "supply voltage in volts (0 = technology nominal)")
	flag.StringVar(&cfg.corners, "corners", "", "batch multi-corner sweep: comma-separated slow|typ|fast names and/or TEMP:VDD pairs (e.g. slow,typ,fast or 125:1.08,-40:1.32)")
	flag.BoolVar(&cfg.structural, "structural", false, "skip delay models (order paths by length)")
	flag.StringVar(&cfg.statsFile, "stats", "", "write a machine-readable run report (JSON) to this file")
	flag.StringVar(&cfg.traceFile, "trace", "", "write structured search events (JSONL) to this file")
	flag.Int64Var(&cfg.traceSample, "trace-sample", 0, "with -trace, also record every Nth search step (0 = off)")
	flag.BoolVar(&cfg.progress, "progress", false, "print a periodic search progress line to stderr")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve expvar and pprof on this address (e.g. :6060)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve OpenMetrics text on this address at /metrics (e.g. :9090)")
	list := flag.Bool("list", false, "list built-in circuits and exit")
	flag.Parse()
	if *list {
		for _, n := range circuits.Names() {
			fmt.Println(n)
		}
		return
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tpsta:", err)
		os.Exit(1)
	}
}

// statsReport is the -stats JSON schema (documented in README.md).
type statsReport struct {
	Tool    string `json:"tool"`
	Circuit struct {
		Name         string `json:"name"`
		Inputs       int    `json:"inputs"`
		Outputs      int    `json:"outputs"`
		Gates        int    `json:"gates"`
		Depth        int    `json:"depth"`
		ComplexGates int    `json:"complexGates"`
	} `json:"circuit"`
	Options struct {
		Tech        string `json:"tech"`
		K           int    `json:"k"`
		MaxSteps    int64  `json:"maxSteps"`
		Workers     int    `json:"workers"`
		Robust      bool   `json:"robust"`
		ComplexOnly bool   `json:"complexOnly"`
		Structural  bool   `json:"structural"`
	} `json:"options"`
	PhaseSeconds map[string]float64 `json:"phaseSeconds"`
	Search       core.SearchStats   `json:"search"`
	Result       struct {
		Paths              int     `json:"paths"`
		Courses            int     `json:"courses"`
		MultiVectorCourses int     `json:"multiVectorCourses"`
		Truncated          bool    `json:"truncated"`
		WorstDelayPs       float64 `json:"worstDelayPs"`
	} `json:"result"`
	Characterization *charlib.CharStats  `json:"characterization,omitempty"`
	Parallel         *core.ParallelStats `json:"parallel,omitempty"`
	Kernels          *core.KernelStats   `json:"kernels,omitempty"`
	// Corners is the per-corner table of a -corners sweep, in sweep
	// order; absent on single-corner runs.
	Corners []core.CornerStats `json:"corners,omitempty"`
}

func run(cfg config, out io.Writer) error {
	phases := &obs.Phases{}

	// Open the stats file up front: a typo'd path must not surface only
	// after characterization and search have already been paid for.
	var statsOut *os.File
	if cfg.statsFile != "" {
		f, err := os.Create(cfg.statsFile)
		if err != nil {
			return err
		}
		defer f.Close()
		statsOut = f
	}

	// The tracer opens before any phase runs so load and
	// characterization get spans under the root "run" span, not just
	// the search.
	var tracer *obs.JSONL
	var tr obs.Tracer // nil interface when tracing is off
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = obs.NewJSONL(f)
		tr = tracer
	}
	runSpan := obs.StartSpan(tr, 0, "run")

	var eng *core.Engine
	if cfg.metricsAddr != "" {
		addr, err := obs.ServeMetrics(cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "OpenMetrics endpoint on http://%s/metrics\n", addr)
	}
	if cfg.pprofAddr != "" {
		addr, err := obs.ServeDebug(cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s/debug/pprof/ and /debug/vars\n", addr)
		// Published before the engine exists so the var is visible for
		// the whole run (zero stats until the search finishes).
		obs.Publish("tpsta.search", func() any {
			if eng == nil {
				return core.SearchStats{}
			}
			return eng.Stats()
		})
		obs.Publish("tpsta.parallel", func() any {
			if eng == nil {
				return core.ParallelStats{}
			}
			return eng.ParallelStats()
		})
		obs.Publish("tpsta.kernels", func() any {
			if eng == nil {
				return core.KernelStats{}
			}
			return eng.KernelStats()
		})
	}

	tc, err := tech.ByName(cfg.techName)
	if err != nil {
		return err
	}
	// Operating-point flags are validated before any load or
	// characterization work: a malformed corner spec must fail in
	// milliseconds, not after a minute of library sweeping.
	if math.IsNaN(cfg.temp) || math.IsInf(cfg.temp, 0) {
		return fmt.Errorf("-temp %v: temperature must be a finite value in °C", cfg.temp)
	}
	if math.IsNaN(cfg.vdd) || math.IsInf(cfg.vdd, 0) || cfg.vdd < 0 {
		return fmt.Errorf("-vdd %v: supply must be a positive voltage, or 0 for the %s nominal (%.2f V)", cfg.vdd, tc.Name, tc.VDD)
	}
	var cornerPts []core.OperatingPoint
	if cfg.corners != "" {
		cornerPts, err = parseCorners(cfg.corners, tc)
		if err != nil {
			return err
		}
	}
	stopLoad := phases.Start("load")
	loadSpan := obs.StartSpan(tr, runSpan.ID(), "load")
	var cir *netlist.Circuit
	if cfg.verilogFile != "" {
		f, err := os.Open(cfg.verilogFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cir, err = netlist.ParseVerilog(cfg.verilogFile, f)
		if err != nil {
			return err
		}
	} else if cfg.benchFile != "" {
		f, err := os.Open(cfg.benchFile)
		if err != nil {
			return err
		}
		defer f.Close()
		cir, err = netlist.ParseBench(cfg.benchFile, f)
		if err != nil {
			return err
		}
	} else {
		cir, err = circuits.Get(cfg.circuitName)
		if err != nil {
			return err
		}
	}
	if cfg.coneOutputs != "" {
		var outs []string
		for _, o := range strings.Split(cfg.coneOutputs, ",") {
			outs = append(outs, strings.TrimSpace(o))
		}
		cone, err := netlist.ExtractCone(cir, cell.Default(), outs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "restricted to the cone of %v: %d of %d gates\n", outs, len(cone.Gates), len(cir.Gates))
		cir = cone
	}
	loadSpan.End()
	stopLoad()

	st, err := cir.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d inputs, %d outputs, %d gates (depth %d, %d complex)\n",
		st.Name, st.Inputs, st.Outputs, st.Gates, st.Depth, st.ComplexGates)

	var lib *charlib.Library
	var charStats *charlib.CharStats
	if cfg.structural {
		lib = nil
	} else if cfg.libFile != "" {
		f, err := os.Open(cfg.libFile)
		if err != nil {
			return err
		}
		lib, err = charlib.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		if lib.TechName != tc.Name {
			return fmt.Errorf("library is for %s, not %s", lib.TechName, tc.Name)
		}
		if len(cornerPts) > 0 && (len(lib.Grid.Temp) < 2 || len(lib.Grid.VDDRel) < 2) {
			fmt.Fprintf(out, "warning: library characterized at nominal T/VDD only; every -corners point will report nominal delays\n")
		}
		fmt.Fprintf(out, "loaded %s\n", lib)
	} else {
		grid := charlib.NominalGrid()
		if cfg.quickChar {
			grid = charlib.TestGrid()
		}
		if len(cornerPts) > 0 {
			// A corner sweep needs models with live T/VDD terms, which
			// only the temperature and supply sweep provides.
			full := charlib.FullGrid()
			grid.Temp, grid.VDDRel = full.Temp, full.VDDRel
		}
		fmt.Fprintf(out, "characterizing %s library...\n", tc.Name)
		stopChar := phases.Start("characterize")
		charSpan := obs.StartSpan(tr, runSpan.ID(), "characterize")
		lib, err = charlib.Characterize(tc, cell.Default(), grid, charlib.Options{})
		if err != nil {
			return err
		}
		charSpan.End()
		d := stopChar()
		charStats = &lib.Stats
		fmt.Fprintf(out, "characterized %d arcs in %.1fs (%.0f%% worker utilization, %d fit solves)\n",
			len(lib.Poly), d.Seconds(), lib.Stats.Utilization*100, lib.Stats.FitSolves)
	}

	opts := core.Options{
		Workers: cfg.workers, ComplexOnly: cfg.complexOnly,
		MaxSteps: cfg.maxSteps, Robust: cfg.robust,
		Temp: cfg.temp, VDD: cfg.vdd,
		Tracer: tr, TraceParent: runSpan.ID(), TraceSampleEvery: cfg.traceSample,
	}
	// Histograms are collected only when an endpoint can serve them:
	// the step clock reads are not free on an unobserved run.
	if cfg.metricsAddr != "" || cfg.pprofAddr != "" {
		opts.Metrics = &core.Metrics{}
	}
	if cfg.progress {
		pp := obs.NewPrinter(os.Stderr)
		opts.Progress = func(pi core.ProgressInfo) {
			pp.SetWorkers(pi.Workers)
			if pi.Done {
				pp.Done(pi.Steps, pi.Paths)
				return
			}
			pp.Update(pi.Steps, pi.MaxSteps, pi.Paths)
		}
	}

	eng = core.New(cir, tc, lib, opts)
	if opts.Metrics != nil {
		// The /metrics (and /debug) servers are already up; the engine's
		// source snapshots live counters at every scrape from here on.
		eng.RegisterMetrics("core")
	}
	// writeStats renders the -stats JSON for each exit: a single-corner
	// Result, a -corners sweep (res nil, mc set), or an -sdf run that
	// searched nothing (both nil).
	writeStats := func(res *core.Result, mc *core.MultiCornerResult) error {
		if statsOut == nil {
			return nil
		}
		var sr statsReport
		sr.Tool = "tpsta"
		sr.Circuit.Name = st.Name
		sr.Circuit.Inputs = st.Inputs
		sr.Circuit.Outputs = st.Outputs
		sr.Circuit.Gates = st.Gates
		sr.Circuit.Depth = st.Depth
		sr.Circuit.ComplexGates = st.ComplexGates
		sr.Options.Tech = cfg.techName
		sr.Options.K = cfg.k
		sr.Options.MaxSteps = cfg.maxSteps
		sr.Options.Workers = cfg.workers
		sr.Options.Robust = cfg.robust
		sr.Options.ComplexOnly = cfg.complexOnly
		sr.Options.Structural = cfg.structural
		sr.PhaseSeconds = phases.Map()
		sr.Search = eng.Stats()
		switch {
		case mc != nil:
			sr.Corners = mc.Stats
			sr.Result.Paths = len(mc.Cross)
			for _, cs := range mc.Stats {
				sr.Result.Truncated = sr.Result.Truncated || cs.Truncated
			}
			if len(mc.Cross) > 0 {
				cp := mc.Cross[0]
				sr.Result.WorstDelayPs = cp.Delays[cp.WorstCorner] * 1e12
			}
		case res != nil:
			sr.Result.Paths = len(res.Paths)
			sr.Result.Courses = res.Courses
			sr.Result.MultiVectorCourses = res.MultiVectorCourses
			sr.Result.Truncated = res.Truncated
			if len(res.Paths) > 0 {
				sr.Result.WorstDelayPs = res.Paths[0].WorstDelay() * 1e12
			}
			if ps := eng.ParallelStats(); ps.Workers > 1 {
				sr.Parallel = &ps
			}
		}
		sr.Characterization = charStats
		if ks := eng.KernelStats(); ks.Arcs > 0 {
			sr.Kernels = &ks
		}
		buf, err := json.MarshalIndent(&sr, "", "  ")
		if err != nil {
			return err
		}
		if _, err := statsOut.Write(append(buf, '\n')); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote run report to %s\n", cfg.statsFile)
		return nil
	}

	// finish is run's one epilogue, shared by its three exits (SDF,
	// corner sweep, K-worst): it ends the root span, flushes the trace
	// and writes the -stats report.
	finish := func(res *core.Result, mc *core.MultiCornerResult) error {
		if tracer != nil {
			runSpan.End()
			if err := tracer.Flush(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote trace to %s (render it with cmd/obsreport)\n", cfg.traceFile)
		}
		return writeStats(res, mc)
	}

	if cfg.sdfFile != "" {
		if lib == nil {
			return fmt.Errorf("-sdf needs a characterized library (omit -structural)")
		}
		f, err := os.Create(cfg.sdfFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sdf.Write(f, cir, tc, lib, sdf.Options{}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.sdfFile)
		return finish(nil, nil)
	}

	if len(cornerPts) > 0 {
		stopSearch := phases.Start("search")
		mc, err := eng.MultiCornerKWorst(cornerPts, cfg.k)
		if err != nil {
			return err
		}
		searchDur := stopSearch()
		if err := printCornerReport(out, mc, searchDur.Seconds()); err != nil {
			return err
		}
		return finish(nil, mc)
	}
	stopSearch := phases.Start("search")
	res, err := eng.KWorst(cfg.k)
	if err != nil {
		return err
	}
	searchDur := stopSearch()
	if ps := eng.ParallelStats(); ps.Workers > 1 {
		fmt.Fprintf(os.Stderr, "parallel: %d workers over %d shards (%d units), %.0f%% pool utilization, %d shard + %d subtree steals, %d donations, %.2f balance\n",
			ps.Workers, ps.Shards, ps.Units, ps.Utilization*100,
			ps.ShardSteals, ps.SubtreeSteals, ps.Donations, ps.Balance)
	}
	if ks := eng.KernelStats(); ks.Arcs > 0 {
		fmt.Fprintf(os.Stderr, "kernels: %d arcs specialized (%d terms) in %.1fms, %d arc queries; pool %d kernels (%d terms, %d ops), %d batch rounds at %.0f%% fill\n",
			ks.Arcs, ks.Terms, ks.BuildSeconds*1e3, ks.ArcQueries,
			ks.PoolKernels, ks.PoolTerms, ks.PoolOps, ks.BatchRounds, ks.BatchFill*100)
	}
	if res.Truncated {
		advice := "raise -max-steps to search further"
		if res.Truncation == core.TruncJustifyBudget {
			advice = fmt.Sprintf("%d completed paths exceeded the justification budget and were dropped", res.JustificationAborts)
		}
		fmt.Fprintf(os.Stderr, "warning: search truncated (%s) — results may be incomplete; %s\n",
			res.Truncation, advice)
	}
	fmt.Fprintf(out, "search: %d steps in %.2fs (%d conflicts, %d backtracks, %d justification aborts)\n\n",
		res.Steps, searchDur.Seconds(), res.Stats.Conflicts, res.Stats.Backtracks, res.JustificationAborts)

	if cfg.testsFile != "" {
		f, err := os.Create(cfg.testsFile)
		if err != nil {
			return err
		}
		if err := core.WriteTestPairs(f, res.Paths); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d-path test set to %s\n", len(res.Paths), cfg.testsFile)
	}

	if cfg.dotFile != "" && len(res.Paths) > 0 {
		f, err := os.Create(cfg.dotFile)
		if err != nil {
			return err
		}
		if err := netlist.WriteDot(f, cir, res.Paths[0].Nodes); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (worst path highlighted)\n", cfg.dotFile)
	}

	tb := report.New(fmt.Sprintf("%d worst true paths", len(res.Paths)),
		"#", "delay(ps)", "edge", "path [cell.pin#case]", "input cube")
	for i, p := range res.Paths {
		edge := "rise"
		if p.FallDelay >= p.RiseDelay {
			edge = "fall"
		}
		tb.Row(i+1, report.Ps(p.WorstDelay()), edge, p.String(), cubeString(p))
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	if cfg.detail {
		for _, p := range res.Paths {
			rising := p.RiseOK
			if p.FallOK && p.FallDelay > p.RiseDelay {
				rising = false
			}
			if err := eng.WritePathReport(out, p, rising); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	return finish(res, nil)
}

// parseCorners turns a -corners spec into absolute operating points.
// Each comma-separated field is either a standard corner name (slow,
// typ/typical, fast — resolved against the technology nominal supply
// exactly like variation.StandardCorners) or an explicit TEMP:VDD pair
// of a finite °C temperature and a positive absolute voltage.
func parseCorners(spec string, tc *tech.Tech) ([]core.OperatingPoint, error) {
	std := variation.StandardCorners()
	var pts []core.OperatingPoint
	for _, raw := range strings.Split(spec, ",") {
		field := strings.TrimSpace(raw)
		var named *variation.Corner
		switch strings.ToLower(field) {
		case "":
			return nil, fmt.Errorf("-corners %q: empty corner spec; want slow|typ|fast or TEMP:VDD", spec)
		case "slow":
			named = &std[0]
		case "typ", "typical":
			named = &std[1]
		case "fast":
			named = &std[2]
		}
		if named != nil {
			pt := variation.Points(tc, []variation.Corner{*named})[0]
			pt.Name = strings.ToLower(field)
			pts = append(pts, pt)
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("-corners: malformed corner %q; want slow|typ|fast or TEMP:VDD (e.g. 125:1.08)", field)
		}
		temp, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("-corners: corner %q: bad temperature: %w", field, err)
		}
		vdd, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("-corners: corner %q: bad supply: %w", field, err)
		}
		if math.IsNaN(temp) || math.IsInf(temp, 0) {
			return nil, fmt.Errorf("-corners: corner %q: temperature must be a finite value in °C", field)
		}
		if math.IsNaN(vdd) || math.IsInf(vdd, 0) || vdd <= 0 {
			return nil, fmt.Errorf("-corners: corner %q: supply must be a positive voltage in volts", field)
		}
		pts = append(pts, core.OperatingPoint{Temp: temp, VDD: vdd})
	}
	return pts, nil
}

// printCornerReport renders the per-corner summary and the
// cross-corner path table of a batch sweep.
func printCornerReport(out io.Writer, mc *core.MultiCornerResult, seconds float64) error {
	tb := report.New(fmt.Sprintf("corner summary (%d corners in %.2fs)", len(mc.Stats), seconds),
		"corner", "T(°C)", "VDD(V)", "build(ms)", "shared", "steps", "paths", "worst(ps)", "trunc")
	for _, cs := range mc.Stats {
		tb.Row(cs.Name, cs.Temp, cs.VDD, fmt.Sprintf("%.1f", cs.BuildSeconds*1e3),
			cs.SharedBuild, cs.Steps, cs.Paths, report.Ps(cs.WorstDelay), cs.Truncated)
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	fmt.Fprintln(out)
	cols := []string{"#", "worst@"}
	for _, cs := range mc.Stats {
		cols = append(cols, cs.Name+"(ps)")
	}
	cols = append(cols, "path [cell.pin#case]")
	xb := report.New(fmt.Sprintf("%d cross-corner paths", len(mc.Cross)), cols...)
	for i, cp := range mc.Cross {
		row := []interface{}{i + 1, mc.Stats[cp.WorstCorner].Name}
		for _, d := range cp.Delays {
			row = append(row, report.Ps(d))
		}
		row = append(row, cp.Path.String())
		xb.Row(row...)
	}
	return xb.Render(out)
}

// cubeString renders a path's launch input and justified cube.
func cubeString(p *core.TruePath) string {
	if len(p.Cube) == 0 {
		return p.Start + "=T"
	}
	return p.Start + "=T " + p.Cube.String()
}
