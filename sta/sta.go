// Package sta is the public API of the true-path static timing analyzer:
// a reproduction of "An efficient and scalable STA tool with direct path
// estimation and exhaustive sensitization vector exploration for optimal
// delay computation" (Barceló, Gili, Bota, Segura — DATE 2011).
//
// The typical workflow is:
//
//	tc, _ := sta.TechByName("130nm")
//	lib, _ := sta.Characterize(tc, sta.NominalGrid())   // one-time, cacheable
//	cir, _ := sta.BuiltinCircuit("c432")                // or sta.ParseBench
//	eng := sta.NewEngine(cir, tc, lib, sta.EngineOptions{})
//	res, _ := eng.KWorst(10)                            // 10 worst true paths
//	for _, p := range res.Paths { fmt.Println(p, p.WorstDelay()) }
//
// Every path comes with the sensitization vector of each traversed gate
// and the justified primary-input cube; paths with the same gate sequence
// but different vectors are distinct results, so the vector-dependent
// delay of complex gates (the paper's Section II) is never collapsed.
//
// Every search runs on a work-stealing pool of EngineOptions.Workers
// workers (0 = all CPUs; 1 = one worker, the serial search): launch
// points seed the workers, idle workers steal unstarted shards and then
// donated DFS subtrees, and a shared atomic step budget makes a
// truncated search perform exactly MaxSteps attempts at every worker
// count. Untruncated results merge deterministically, byte-identical at
// every worker count; Engine.ParallelStats reports utilization, steals,
// donations and load balance.
//
// The package re-exports, under one roof:
//
//   - the standard-cell library and its sensitization-vector enumeration
//     (CellLibrary);
//   - the three technology cards and the switch-level electrical
//     simulator used as characterization and verification reference
//     (NewSimulator);
//   - characterization into polynomial models plus baseline NLDM tables
//     (Characterize, SaveLibrary/LoadLibrary);
//   - the single-pass true-path engine (NewEngine) and the emulated
//     two-step commercial baseline (NewBaseline);
//   - the ISCAS-85 evaluation circuits (BuiltinCircuit) and the .bench
//     parser (ParseBench);
//   - functional path verification (VerifyPath).
package sta

import (
	"io"

	"tpsta/internal/baseline"
	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/liberty"
	"tpsta/internal/netlist"
	"tpsta/internal/obs"
	"tpsta/internal/sdf"
	"tpsta/internal/sim"
	"tpsta/internal/spice"
	"tpsta/internal/tech"
	"tpsta/internal/variation"
)

// Re-exported core types. The aliases keep the public surface small
// while documentation and methods live with the implementations.
type (
	// Tech is a technology card (130nm, 90nm or 65nm).
	Tech = tech.Tech
	// Cell is one standard cell; Vectors enumerates its sensitization
	// vectors per input pin.
	Cell = cell.Cell
	// Vector is one sensitization vector of a (cell, pin) pair.
	Vector = cell.Vector
	// CellLib is the standard-cell library.
	CellLib = cell.Lib
	// Circuit is a combinational gate-level netlist.
	Circuit = netlist.Circuit
	// Library is a characterized timing library: polynomial models per
	// sensitization vector plus baseline LUT tables.
	Library = charlib.Library
	// Grid is a characterization sweep specification.
	Grid = charlib.Grid
	// Engine is the single-pass true-path STA engine (the paper's
	// contribution).
	Engine = core.Engine
	// EngineOptions tunes a true-path search.
	EngineOptions = core.Options
	// TruePath is one reported path variant with vectors, cube and
	// delays.
	TruePath = core.TruePath
	// Result is a set of reported true paths.
	Result = core.Result
	// Baseline is the emulated two-step commercial tool.
	Baseline = baseline.Tool
	// BaselineOptions tunes the emulated tool.
	BaselineOptions = baseline.Options
	// BaselineReport is the emulated tool's run report.
	BaselineReport = baseline.Report
	// InputCube is a primary-input assignment (settled levels; TX =
	// don't care).
	InputCube = sim.InputCube
	// Simulator is the switch-level transient simulator.
	Simulator = spice.Sim
)

// Observability. The engines expose typed instrumentation snapshots
// (Engine.Stats, Baseline.Stats, Library.Stats)
// and accept structured tracers and progress callbacks through their
// options; ServeDebug opens the expvar/pprof endpoints.

type (
	// EngineStats is the true-path engine's instrumentation snapshot:
	// sensitization attempts, conflicts caught by forward implication,
	// justification backtracks and aborts, paths recorded/deduped, and
	// the truncation cause.
	EngineStats = core.SearchStats
	// EngineProgress is the payload of EngineOptions.Progress.
	EngineProgress = core.ProgressInfo
	// EngineParallelStats is the worker-pool snapshot of the engine's
	// most recent search: pool size, shard and scheduled-unit counts,
	// shard/subtree steals, donations, wall/busy/idle seconds,
	// utilization and the busy-time balance ratio. See
	// Engine.ParallelStats.
	EngineParallelStats = core.ParallelStats
	// EngineKernelStats describes the engine's run-specialized
	// delay-kernel layer: arcs specialized at the run's (T, VDD),
	// surviving polynomial terms, one-time build cost, arc queries
	// served, the struct-of-arrays pool shape (kernels, pooled terms
	// and factor ops) and the batched evaluator's occupancy (rounds,
	// lanes, mean fill). See Engine.KernelStats.
	EngineKernelStats = core.KernelStats
	// TruncReason identifies which cap stopped a search.
	TruncReason = core.TruncReason
	// BaselineStats is the emulated tool's instrumentation snapshot
	// (structural candidates vs. sensitizable, backtrack-limit hits).
	BaselineStats = baseline.Stats
	// CharStats is the characterization instrumentation snapshot
	// (per-arc sweep/fit timings, worker utilization, fit solves).
	CharStats = charlib.CharStats
	// Tracer consumes structured search events (see EngineOptions.Tracer).
	Tracer = obs.Tracer
	// TraceEvent is one structured search event.
	TraceEvent = obs.Event
	// Span is one hierarchical timed frame of a traced run; see
	// StartSpan. Link engine searches under a root span via
	// EngineOptions.TraceParent.
	Span = obs.Span
	// SpanID identifies a span within a process (0 = no parent).
	SpanID = obs.SpanID
	// Histogram is a lock-free fixed-bucket latency histogram
	// (log2-spaced nanosecond buckets, atomic counters).
	Histogram = obs.Histogram
	// HistogramStat is a histogram snapshot with count, sum and
	// interpolated p50/p90/p99.
	HistogramStat = obs.HistogramStat
	// EngineMetrics is the optional histogram bundle of a search run
	// (EngineOptions.Metrics): step latency, steal-to-resume latency,
	// per-path emit cost and kernel build time.
	EngineMetrics = core.Metrics
)

// Truncation causes (see TruncReason).
const (
	TruncNone          = core.TruncNone
	TruncJustifyBudget = core.TruncJustifyBudget
	TruncMaxVariants   = core.TruncMaxVariants
	TruncMaxSteps      = core.TruncMaxSteps
)

// NewJSONLTracer builds a tracer writing one JSON event per line to w;
// call Flush before closing w.
func NewJSONLTracer(w io.Writer) *obs.JSONL { return obs.NewJSONL(w) }

// ServeDebug starts an HTTP server on addr exposing expvar at
// /debug/vars, pprof under /debug/pprof/ and OpenMetrics text at
// /metrics, returning the bound address (useful with ":0").
func ServeDebug(addr string) (string, error) { return obs.ServeDebug(addr) }

// ServeMetrics starts an HTTP server on addr exposing only the
// OpenMetrics text endpoint at /metrics, returning the bound address.
// Register an engine's counters and histograms with
// Engine.RegisterMetrics before or after starting it.
func ServeMetrics(addr string) (string, error) { return obs.ServeMetrics(addr) }

// StartSpan opens a hierarchical span under parent (0 for a root) on
// tracer t; call End on the returned span. With a nil tracer every
// span operation is a free no-op.
func StartSpan(t Tracer, parent SpanID, name string) Span { return obs.StartSpan(t, parent, name) }

// Technologies returns the three built-in technology cards.
func Technologies() []*Tech { return tech.All() }

// TechByName returns one technology card: "130nm", "90nm" or "65nm".
func TechByName(name string) (*Tech, error) { return tech.ByName(name) }

// CellLibrary returns the built-in standard-cell library.
func CellLibrary() *CellLib { return cell.Default() }

// NominalGrid is the default characterization sweep (load and input slew
// at nominal temperature and supply).
func NominalGrid() Grid { return charlib.NominalGrid() }

// FullGrid additionally sweeps temperature and supply, exercising all
// four variables of the paper's polynomial delay model.
func FullGrid() Grid { return charlib.FullGrid() }

// QuickGrid is a reduced sweep for fast startup (tests, demos).
func QuickGrid() Grid { return charlib.TestGrid() }

// Characterize runs the one-time library parameter extraction: every
// (cell, pin, sensitization vector, edge) arc is swept through the
// electrical simulator and fitted with the polynomial model; baseline
// NLDM tables are built on the default vector.
func Characterize(tc *Tech, grid Grid) (*Library, error) {
	return charlib.Characterize(tc, cell.Default(), grid, charlib.Options{})
}

// LoadLibrary reads a characterized library saved with SaveLibrary.
func LoadLibrary(r io.Reader) (*Library, error) { return charlib.Load(r) }

// SaveLibrary writes a characterized library as JSON.
func SaveLibrary(l *Library, w io.Writer) error { return l.Save(w) }

// BuiltinCircuits lists the bundled evaluation circuits (ISCAS-85 suite
// plus the paper's Fig. 4 sample circuit).
func BuiltinCircuits() []string { return circuits.Names() }

// BuiltinCircuit returns a bundled circuit by name (e.g. "c432", "fig4").
func BuiltinCircuit(name string) (*Circuit, error) { return circuits.Get(name) }

// ParseBench reads an ISCAS-85 .bench netlist in the extended dialect
// WriteBench writes: library cell names such as AO22 as well as the
// classic gate types. A gate may read an INPUT declared below it, and
// every error names its line.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return netlist.ParseBench(name, r)
}

// WriteBench writes a circuit in the extended .bench dialect.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// NewEngine builds a true-path engine. lib may be nil for structure-only
// analysis (paths ordered by length instead of delay).
func NewEngine(c *Circuit, tc *Tech, lib *Library, opts EngineOptions) *Engine {
	return core.New(c, tc, lib, opts)
}

// NewBaseline builds the emulated two-step commercial tool.
func NewBaseline(c *Circuit, tc *Tech, lib *Library, opts BaselineOptions) *Baseline {
	return baseline.New(c, tc, lib, opts)
}

// NewSimulator returns the switch-level transient simulator at nominal
// conditions for the technology.
func NewSimulator(tc *Tech) *Simulator { return spice.New(tc) }

// VerifyPath checks floating-mode sensitization of a reported path: the
// transition launched at start (rising or falling) must propagate along
// the node sequence when the remaining inputs settle at the cube levels.
func VerifyPath(c *Circuit, path []string, start string, rising bool, cube InputCube) error {
	return sim.Verify(c, path, start, rising, cube)
}

// Multi-corner and variation analysis (variation is the paper's stated
// future work). Engine.MultiCorner (and Engine.MultiCornerKWorst) run
// the true-path search at every operating point of one batch: the
// corner-invariant engine state is compiled once, only the kernels'
// per-corner fixed-variable powers are re-folded in the shared pool, and
// all (corner × launch input) shards drain through one work-stealing
// pool. Each corner's Result is byte-identical to an independent run
// at that point; the cross-corner merge reports every path variant's
// delay per corner and its worst corner.

type (
	// OperatingPoint is one corner of a multi-corner sweep (°C,
	// absolute VDD; zero VDD = technology nominal).
	OperatingPoint = core.OperatingPoint
	// CornerResult pairs one corner with its full search result.
	CornerResult = core.CornerResult
	// CornerStats is the per-corner observability row of a sweep
	// (build cost and shared-build flag, steps, paths, worst delay,
	// truncation, busy seconds).
	CornerStats = core.CornerStats
	// CrossCornerPath is one distinct path variant with its delay at
	// every corner and the index of its worst corner.
	CrossCornerPath = core.CrossCornerPath
	// MultiCornerResult is the outcome of one batch sweep: per-corner
	// results, the cross-corner path table, per-corner stats and the
	// shared pool's snapshot.
	MultiCornerResult = core.MultiCornerResult
)

// CornerPoints resolves relative corners (e.g. StandardCorners) against
// a technology's nominal supply into the absolute operating points
// Engine.MultiCorner consumes.
func CornerPoints(tc *Tech, corners []VariationCorner) []OperatingPoint {
	return variation.Points(tc, corners)
}

// VariationAnalyzer evaluates true paths under Monte Carlo samples of
// temperature, supply and per-gate supply noise, exploiting the
// polynomial model's built-in temperature and supply variables. Corner
// analysis is Engine.MultiCorner, which searches at every corner.
type VariationAnalyzer = variation.Analyzer

// VariationCorner is one operating point relative to the nominal
// supply; CornerPoints resolves it for Engine.MultiCorner.
type VariationCorner = variation.Corner

// MCOptions tunes Monte Carlo variation analysis.
type MCOptions = variation.MCOptions

// MCResult is the Monte Carlo outcome (per-path statistics and
// criticality).
type MCResult = variation.MCResult

// NewVariationAnalyzer builds a variation analyzer; the library should be
// characterized over temperature and supply (FullGrid).
func NewVariationAnalyzer(c *Circuit, tc *Tech, lib *Library) *VariationAnalyzer {
	return variation.New(c, tc, lib)
}

// StandardCorners returns the slow/typical/fast corner trio.
func StandardCorners() []VariationCorner { return variation.StandardCorners() }

// Interchange formats.

// ParseVerilog reads a structural gate-level Verilog module instantiating
// library cells (the flavor synthesis tools emit).
func ParseVerilog(name string, r io.Reader) (*Circuit, error) {
	return netlist.ParseVerilog(name, r)
}

// WriteVerilog emits the circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return netlist.WriteVerilog(w, c) }

// WriteLiberty exports the characterized library's NLDM view in Liberty
// (.lib) format. The per-vector polynomial models have no Liberty
// representation — the gap the paper identifies in commercial flows.
func WriteLiberty(w io.Writer, lib *Library) error {
	return liberty.Write(w, lib, cell.Default())
}

// SDFOptions tunes SDF annotation.
type SDFOptions = sdf.Options

// WriteSDF annotates the circuit's timing arcs in SDF 3.0; each arc's
// (min:typ:max) triple spans the sensitization vectors, with typ the
// default vector a vector-blind consumer would use.
func WriteSDF(w io.Writer, c *Circuit, tc *Tech, lib *Library, opts SDFOptions) error {
	return sdf.Write(w, c, tc, lib, opts)
}

// WriteDot emits the circuit as a Graphviz digraph, highlighting the
// given net sequence (e.g. a critical path) in red.
func WriteDot(w io.Writer, c *Circuit, highlight []string) error {
	return netlist.WriteDot(w, c, highlight)
}

// ExtractCone narrows a circuit to the transitive fanin of the named
// outputs — the standard preparation before an expensive endpoint
// analysis on a large design.
func ExtractCone(c *Circuit, outputs []string) (*Circuit, error) {
	return netlist.ExtractCone(c, cell.Default(), outputs)
}
