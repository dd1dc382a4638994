// Package core implements the paper's primary contribution: a single-pass
// true-path STA engine that sensitizes each path *while* tracing it
// (derived from the RESIST algorithm), explores every sensitization
// vector of every complex gate it traverses, justifies all side values
// back to the primary inputs — enumerating every justification
// alternative — and propagates both launch edges simultaneously through
// the dual-value semi-undetermined logic system of internal/logic.
//
// Paths with the same gate sequence ("course") but different sensitization
// vectors or input cubes are preserved as distinct results, so the delay
// dependence on the sensitization vector (Section II of the paper) is
// never collapsed. Delays are computed on the fly from the characterized
// polynomial models, chaining output transition times into the next
// gate's input.
package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/netlist"
	"tpsta/internal/num"
	"tpsta/internal/obs"
	"tpsta/internal/polyfit"
	"tpsta/internal/sim"
	"tpsta/internal/tech"
)

// Options tune a true-path search.
type Options struct {
	// Workers sizes the work-stealing pool every search runs on:
	// Enumerate and KWorst seed one shard per primary input
	// (EnumerateCourse one, its launch input), idle workers steal
	// untouched shards, and busy searchers donate unexplored DFS
	// subtrees so a single hot launch cone spreads across the pool
	// (DESIGN.md §11). 0 selects GOMAXPROCS; 1 is a one-worker
	// pool, which never steals or donates. The shards are merged
	// deterministically (see DESIGN.md §8): recorded paths, vectors,
	// cubes and delays are byte-identical for every worker count
	// whenever the search runs untruncated, and identical across
	// repeated runs at any fixed setting. Under a MaxSteps budget the
	// pool draws on a single shared budget, so a truncated run performs
	// exactly MaxSteps attempts at every worker count — which paths
	// land inside the budget then depends on scheduling.
	Workers int
	// StealPollSteps is the period, in sensitization attempts, at which
	// a busy parallel worker checks for starving peers and donates a
	// subtree (default 128; the steal-storm stress test sets 1).
	StealPollSteps int64
	// ComplexOnly records only paths traversing at least one multi-vector
	// arc (the paths of interest in the paper's evaluation). Traversal is
	// unchanged; only recording is filtered.
	ComplexOnly bool
	// MaxVariants caps the number of recorded (course, vectors, cube)
	// results; 0 means unlimited.
	MaxVariants int
	// MaxSteps caps the number of sensitization attempts (decision
	// applications) before the search stops and reports truncation;
	// 0 means unlimited.
	MaxSteps int64
	// JustifyBudget bounds the backtracks spent justifying one completed
	// path (default 2000). Exhausting it drops that path variant, counts
	// a justification abort and marks the result truncated
	// (TruncJustifyBudget).
	JustifyBudget int
	// Robust demands steady (not merely settling) side values at every
	// gate, yielding conservatively robust path-delay tests: the reported
	// transition propagates regardless of relative arrival times, the
	// classification delay-test flows care about. Robust paths are a
	// subset of the default floating-mode set.
	Robust bool
	// InputSlew is the transition time assumed at primary inputs for
	// delay computation (default 40 ps).
	InputSlew float64
	// Temp and VDD select the operating point for the polynomial model
	// (defaults 25 °C and the technology nominal).
	Temp float64
	// VDD of 0 selects nominal.
	VDD float64
	// Tracer, when non-nil, receives structured search events (input
	// started, path recorded, truncation, done, spans, scheduler
	// steal/donate/resume). Emission happens only at those coarse
	// points — never per step unless TraceSampleEvery opts in.
	Tracer obs.Tracer
	// TraceSampleEvery, with a Tracer configured, additionally emits one
	// sampled "step" event every N sensitization decisions, recording
	// the DFS depth, the frame's 128-bit path signature, the worker and
	// the replay provenance. 0 (the default) disables step sampling.
	TraceSampleEvery int64
	// TraceParent parents the search's spans ("enumerate", "course",
	// "kworst" → "worker" → "shard"/"subtree") under a caller-owned
	// span — the CLI passes its "run" span here. 0 makes the search span
	// a root.
	TraceParent obs.SpanID
	// Metrics, when non-nil, streams hot-path latencies into the given
	// histogram bundle: decision-application cost, donation-to-resume
	// latency, per-path emit cost and kernel builds. nil (the default)
	// keeps every instrumented site branch-only — no clock reads, no
	// allocations on the search hot path.
	Metrics *Metrics
	// Progress, when non-nil, is called every ProgressEvery
	// sensitization attempts and once more (Done=true) when the search
	// finishes.
	Progress func(ProgressInfo)
	// ProgressEvery is the Progress callback period in sensitization
	// attempts (default 65536).
	ProgressEvery int64
}

// ProgressInfo is the payload of the Options.Progress callback.
type ProgressInfo struct {
	// Steps is the sensitization attempts performed so far. In a
	// parallel run this is the aggregate across all workers.
	Steps int64
	// MaxSteps echoes the configured budget (0 = unlimited).
	MaxSteps int64
	// Paths is the true-path variants recorded so far.
	Paths int64
	// Input names the launching primary input currently searched (in a
	// parallel run, the input of whichever worker reported last).
	Input string
	// Workers is the number of concurrent searchers (the pool size).
	Workers int
	// Done marks the final callback of the run.
	Done bool
}

// TruncReason identifies which cap stopped a search. The values are
// ordered by severity; when several fire, the strongest is reported.
type TruncReason int

// Truncation causes.
const (
	// TruncNone: the search ran to completion.
	TruncNone TruncReason = iota
	// TruncJustifyBudget: at least one completed path exceeded
	// Options.JustifyBudget and was dropped, so a true path may be
	// missing. The weakest reason: a cap that stopped the whole search
	// outranks it.
	TruncJustifyBudget
	// TruncMaxVariants: the MaxVariants cap on recorded results fired.
	TruncMaxVariants
	// TruncMaxSteps: the global MaxSteps budget ran out.
	TruncMaxSteps
)

// String names the reason.
func (r TruncReason) String() string {
	switch r {
	case TruncNone:
		return "none"
	case TruncJustifyBudget:
		return "justify-budget"
	case TruncMaxVariants:
		return "max-variants"
	case TruncMaxSteps:
		return "max-steps"
	default:
		return fmt.Sprintf("TruncReason(%d)", int(r))
	}
}

// MarshalJSON encodes the reason as its name.
func (r TruncReason) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON decodes a reason name.
func (r *TruncReason) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, cand := range []TruncReason{TruncNone, TruncJustifyBudget, TruncMaxVariants, TruncMaxSteps} {
		if cand.String() == s {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("core: unknown truncation reason %q", s)
}

// SearchStats is the instrumentation snapshot of one search run —
// the counters behind the paper's efficiency claims, exposed via
// Engine.Stats and Result.Stats.
type SearchStats struct {
	// SensitizationAttempts counts sensitization-decision applications
	// (the search's unit of work, Options.MaxSteps's currency).
	SensitizationAttempts int64 `json:"sensitizationAttempts"`
	// Conflicts counts launch-edge scenarios killed by forward
	// implication — the paper's early conflict detection that avoids a
	// full justification per decision.
	Conflicts int64 `json:"conflicts"`
	// Backtracks counts justification alternatives undone while
	// resolving end-of-path obligations.
	Backtracks int64 `json:"backtracks"`
	// JustificationAborts counts completed paths dropped because their
	// justification exceeded Options.JustifyBudget.
	JustificationAborts int64 `json:"justificationAborts"`
	// PathsRecorded counts distinct true-path variants recorded.
	PathsRecorded int64 `json:"pathsRecorded"`
	// PathsDeduped counts justified variants dropped as duplicates of an
	// already-recorded (course, vectors, cube, edges) combination.
	PathsDeduped int64 `json:"pathsDeduped"`
	// Truncation is the strongest cap that fired (TruncNone when the
	// search completed).
	Truncation TruncReason `json:"truncation"`
}

// add folds another searcher's counters into st: the counts are summed
// and the strongest truncation reason is kept.
func (st *SearchStats) add(o SearchStats) {
	st.SensitizationAttempts += o.SensitizationAttempts
	st.Conflicts += o.Conflicts
	st.Backtracks += o.Backtracks
	st.JustificationAborts += o.JustificationAborts
	st.PathsRecorded += o.PathsRecorded
	st.PathsDeduped += o.PathsDeduped
	if o.Truncation > st.Truncation {
		st.Truncation = o.Truncation
	}
}

func (o Options) withDefaults(tc *tech.Tech) Options {
	if o.InputSlew <= 0 {
		o.InputSlew = 40e-12
	}
	if num.IsZero(o.Temp) {
		o.Temp = 25
	}
	if num.IsZero(o.VDD) && tc != nil {
		o.VDD = tc.VDD
	}
	return o
}

// Arc is one traversed gate of a path: the transition enters the cell on
// Pin under sensitization vector Vec.
type Arc struct {
	Gate *netlist.Gate
	Pin  string
	Vec  cell.Vector
}

// TruePath is one reported result: a sensitized path with its complete
// vector assignment and justified input cube. The same course appears
// once per distinct (vectors, cube) combination.
type TruePath struct {
	// Start is the launching primary input.
	Start string
	// Nodes is the node sequence from Start to a primary output.
	Nodes []string
	// Arcs are the traversed gates with their sensitization vectors.
	Arcs []Arc
	// Cube is the justified primary-input assignment (Start excluded;
	// unconstrained inputs are TX).
	Cube sim.InputCube
	// RiseOK/FallOK report which launch edges the path is true for.
	RiseOK, FallOK bool
	// RiseDelay/FallDelay are the polynomial-model path delays for the
	// corresponding launch edge (0 when that edge is not true or no
	// library was supplied).
	RiseDelay, FallDelay float64

	// sig is the 128-bit path signature (launch node, arc decisions,
	// cube, edges — see sig.go): the dedupe identity at record time and
	// the cross-worker identity in the parallel merge. Zero on
	// hand-built paths.
	sig sig128

	// courseKey memoizes CourseKey; built lazily on first use (the
	// search no longer materializes any string at record time).
	courseKey string
	// variantKey discriminates same-course variants: the arc vector
	// cases, the justified cube levels (sorted input order) and the
	// true edges, built lazily by variantID. Together with courseKey it
	// uniquely identifies a recorded path, which makes pathBetter a
	// total order.
	variantKey string
}

// variantID returns the memoized variant sort key. Like CourseKey, the
// first call on a given path is not safe for concurrent use; the
// engine only compares keys during the single-threaded sort/merge.
func (p *TruePath) variantID() string {
	if p.variantKey == "" {
		var b strings.Builder
		for _, a := range p.Arcs {
			fmt.Fprintf(&b, "%d.", a.Vec.Case)
		}
		b.WriteByte('|')
		for _, n := range p.Cube.Names() {
			b.WriteString(p.Cube[n].String())
		}
		b.WriteByte('|')
		if p.RiseOK {
			b.WriteByte('R')
		}
		if p.FallOK {
			b.WriteByte('F')
		}
		p.variantKey = b.String()
	}
	return p.variantKey
}

// CourseKey identifies the path's course (node sequence), ignoring
// vectors and cube. Paths reported by the engine carry it precomputed;
// on a hand-built TruePath the first call memoizes it (not safe for
// concurrent first use).
func (p *TruePath) CourseKey() string {
	if p.courseKey == "" {
		p.courseKey = strings.Join(p.Nodes, "→")
	}
	return p.courseKey
}

// WorstDelay returns the larger of the two launch-edge delays.
func (p *TruePath) WorstDelay() float64 {
	if p.RiseDelay > p.FallDelay {
		return p.RiseDelay
	}
	return p.FallDelay
}

// HasMultiVectorArc reports whether any traversed arc had alternatives.
func (p *TruePath) HasMultiVectorArc() bool {
	for _, a := range p.Arcs {
		if len(a.Gate.Cell.Vectors(a.Pin)) > 1 {
			return true
		}
	}
	return false
}

// String renders "start→…→out via vectors".
func (p *TruePath) String() string {
	var b strings.Builder
	b.WriteString(p.CourseKey())
	b.WriteString(" [")
	for i, a := range p.Arcs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s.%s#%d", a.Gate.Cell.Name, a.Pin, a.Vec.Case)
	}
	b.WriteString("]")
	return b.String()
}

// Result is the outcome of an enumeration.
type Result struct {
	// Paths lists every recorded true path variant, sorted by worst
	// delay descending (stable for equal delays).
	Paths []*TruePath
	// Courses is the number of distinct pin-level courses among Paths:
	// node sequences told apart by the entry pin of every arc.
	Courses int
	// MultiVectorCourses counts courses recorded with more than one
	// variant — the paper's "MultiInput Paths" column.
	MultiVectorCourses int
	// Truncated is set when a cap stopped the search early.
	Truncated bool
	// Truncation names the strongest cap that fired (TruncNone when
	// Truncated is false).
	Truncation TruncReason
	// Steps counts sensitization attempts performed.
	Steps int64
	// JustificationAborts counts completed paths dropped because their
	// justification exceeded Options.JustifyBudget.
	JustificationAborts int64
	// Stats is the full instrumentation snapshot of the run.
	Stats SearchStats
}

// Engine runs true-path searches over one circuit.
type Engine struct {
	Circuit *netlist.Circuit
	Tech    *tech.Tech
	// Lib supplies the polynomial delay models; nil runs the engine in
	// structure-only mode (all delays zero).
	Lib  *charlib.Library
	Opts Options

	loadCache map[int]float64 // gate ID → output load capacitance
	kern      *kernelState    // delay-kernel build at Opts' operating point (see kernels.go)
	scratch   []float64       // serial-context arc-delay buffer (reports, bounds)
	ksc       kernelScratch   // batched-evaluation lane scratch (per engine copy)
	lastStats SearchStats     // snapshot of the most recent search
	lastPar   ParallelStats   // pool snapshot of the most recent search
	graph     *searchGraph    // the circuit compiled for the search (searchGraph)
	// statsMu guards lastStats/lastPar against concurrent reads from the
	// /metrics exposition while a run publishes its snapshot. A pointer —
	// not an embedded mutex — because workerEngine shallow-copies the
	// engine (copylocks); worker copies share the same lock but never
	// publish, and a sweep's corner copies publish only their own
	// snapshots. nil (zero-value engines) skips locking: such engines are
	// single-threaded by construction.
	statsMu *sync.Mutex
	// pathHint is the recorded-path count of the previous run; the next
	// run's searchers pre-size their dedupe sets from it.
	pathHint int
}

// searchGraph returns the engine's compiled search graph, built once
// per engine. Worker and corner engines share it read-only: it is
// warmed before the parallel fan-out (warmShared, cornerEngines), and
// every searcher reads the warmed graph.
func (e *Engine) searchGraph() (*searchGraph, error) {
	if e.graph == nil {
		gr, err := newSearchGraph(e.Circuit)
		if err != nil {
			return nil, err
		}
		e.graph = gr
	}
	return e.graph, nil
}

// Stats returns the instrumentation snapshot of the engine's most
// recent search (Enumerate, EnumerateCourse or KWorst). Identical runs
// yield identical snapshots — the search is deterministic.
func (e *Engine) Stats() SearchStats {
	st, _ := e.snapStats()
	return st
}

// snapStats reads the published run snapshots under the stats lock
// (no-op on zero-value engines, which are single-threaded).
func (e *Engine) snapStats() (SearchStats, ParallelStats) {
	if e.statsMu != nil {
		e.statsMu.Lock()
		defer e.statsMu.Unlock()
	}
	return e.lastStats, e.lastPar
}

// publish installs a completed run's counter snapshot and pool
// snapshot, and the next run's dedupe pre-size hint.
func (e *Engine) publish(st SearchStats, ps ParallelStats) {
	if e.statsMu != nil {
		e.statsMu.Lock()
		defer e.statsMu.Unlock()
	}
	e.lastStats, e.lastPar = st, ps
	e.pathHint = int(st.PathsRecorded)
}

// New builds an engine. lib may be nil for structure-only analysis.
// A nil circuit, or a library without a technology, is accepted here
// and rejected with an error by every search (see checkInputs).
func New(c *netlist.Circuit, tc *tech.Tech, lib *charlib.Library, opts Options) *Engine {
	gates := 0
	if c != nil {
		gates = len(c.Gates)
	}
	return &Engine{
		Circuit:   c,
		Tech:      tc,
		Lib:       lib,
		Opts:      opts.withDefaults(tc),
		loadCache: make(map[int]float64, gates),
		statsMu:   &sync.Mutex{},
	}
}

// checkInputs rejects an engine no search can run on: one without a
// circuit, or one whose delay library has no technology to compute the
// gate loads from.
func (e *Engine) checkInputs() error {
	if e.Circuit == nil {
		return fmt.Errorf("core: engine has no circuit")
	}
	if e.Lib != nil && e.Tech == nil {
		return fmt.Errorf("core: engine has a delay library but no technology")
	}
	return nil
}

// Enumerate runs the single-pass true-path search from every primary
// input and returns all recorded true paths. The launching inputs are
// the root shards of the work-stealing pool, one per input, and the
// workers' paths are merged deterministically (see mergeOutcomes).
//
// stalint:deterministic results must be byte-identical across runs and
// worker counts (TestParallelMatchesSerial)
func (e *Engine) Enumerate() (*Result, error) {
	if err := e.checkInputs(); err != nil {
		return nil, err
	}
	return e.poolSearch(len(e.Circuit.Inputs), 0, "enumerate", runInputUnit)
}

// EnumerateCourse explores every sensitization-vector combination of one
// fixed course (a node-name sequence from a primary input to an output)
// and returns the true variants — the developed tool pointed at a single
// path, used to adjudicate the baseline tool's verdicts and to find the
// worst vector of a given path. It is the free search from the course's
// launch input with the fanout restricted to the course, so it returns
// exactly the variants Enumerate records on that course. A node course
// covers all of its pin-level courses: where a net enters the next gate
// on two pins, both entries are followed, and the variants of each are
// returned.
//
// stalint:deterministic single-course verdicts feed A/B adjudication;
// same contract as Enumerate
func (e *Engine) EnumerateCourse(nodes []string) (*Result, error) {
	if err := e.checkInputs(); err != nil {
		return nil, err
	}
	start, course, err := e.resolveCourse(nodes)
	if err != nil {
		return nil, err
	}
	// The free search from the course's launch input, restricted to the
	// course: one root unit, spread over the pool by subtree donation
	// like any launch cone.
	return e.poolSearch(1, 0, "course", func(s *searcher, t task) {
		s.course = course
		s.runUnit(int32(start.ID), t.resume)
	})
}

// resolveCourse validates a node-name course and resolves its hops: the
// node ID each step reaches. The search follows every fanout ref of a
// hop's head whose gate drives that node.
func (e *Engine) resolveCourse(nodes []string) (*netlist.Node, []int32, error) {
	if len(nodes) < 2 {
		return nil, nil, fmt.Errorf("core: course too short")
	}
	start := e.Circuit.Node(nodes[0])
	if start == nil || !start.IsInput {
		return nil, nil, fmt.Errorf("core: course start %q is not a primary input", nodes[0])
	}
	hops := make([]int32, 0, len(nodes)-1)
	cur := start
	for _, next := range nodes[1:] {
		nn := e.Circuit.Node(next)
		if nn == nil || nn.Driver == nil {
			return nil, nil, fmt.Errorf("core: course node %q missing or undriven", next)
		}
		if nn.Driver.PinOf(cur) == "" {
			return nil, nil, fmt.Errorf("core: %s does not feed %s", cur.Name, next)
		}
		hops = append(hops, int32(nn.ID))
		cur = nn
	}
	if !cur.IsOutput {
		return nil, nil, fmt.Errorf("core: course ends at %q, not an output", cur.Name)
	}
	return start, hops, nil
}

// load returns the output load of gate g (cached).
func (e *Engine) load(g *netlist.Gate) float64 {
	if v, ok := e.loadCache[g.ID]; ok {
		return v
	}
	v := e.Circuit.LoadCap(g.Out, e.Tech)
	e.loadCache[g.ID] = v
	return v
}

// pathDelay chains the kernel delays along the arcs of a search path
// for the given launch edge, reusing scratch for the per-arc buffer. It
// returns the total and the (possibly grown) scratch for the caller to
// keep. Without a library (structure-only mode) every arc counts one
// unit, so delays order paths by length.
func (e *Engine) pathDelay(scratch []float64, arcs []arcRef, launchRising bool) (float64, []float64, error) {
	ds, err := e.refDelaysInto(scratch, arcs, launchRising)
	if err != nil {
		return 0, scratch, err
	}
	return sumDelays(ds), ds, nil
}

// sumDelays adds per-arc delays in path order, the order every path
// total is summed in.
func sumDelays(ds []float64) float64 {
	total := 0.0
	for _, d := range ds {
		total += d
	}
	return total
}

// ArcDelays returns the per-gate polynomial-model delays along arcs for
// the given launch edge (slews chained gate to gate). Without a library
// every arc counts one unit. It allocates a fresh result slice; hot
// callers reuse one via ArcDelaysInto.
func (e *Engine) ArcDelays(arcs []Arc, launchRising bool) ([]float64, error) {
	return e.ArcDelaysInto(nil, arcs, launchRising)
}

// kernelScratch is the lane scratch of the batched arc-delay
// evaluator: the arc refs a public query resolves its arcs to,
// per-lane delay-kernel pool IDs, one retained power block per lane,
// and a spare block for out-of-band EvalOne calls. One lives on each
// engine (worker engines reset theirs at fan-out so copies never share
// backing arrays); in steady state the buffers are grown once to the
// longest path and reused query to query.
type kernelScratch struct {
	refs []arcRef  // the resolved arcs of a public query (resolve)
	ids  []int32   // per lane: delay-kernel pool ID
	pow  []float64 // per-lane power blocks (n × Pool.LaneLen)
	one  []float64 // spare EvalOne scratch (Pool.ScratchLen)
}

// ensure sizes the scratch for n lanes against the given pool.
// stalint:noalloc steady-state calls take the len-check branches only;
// growth below is first-query amortization
func (sc *kernelScratch) ensure(n int, pool *polyfit.Pool) {
	if cap(sc.ids) < n {
		// stalint:alloc-ok lane buffers grow to the longest path once, then are reused
		sc.ids = make([]int32, n)
	}
	sc.ids = sc.ids[:n]
	need := n * pool.LaneLen()
	if len(sc.pow) < need {
		// stalint:alloc-ok power blocks grow to the longest path once, then are reused
		sc.pow = make([]float64, need)
	}
	if len(sc.one) < pool.ScratchLen() {
		// stalint:alloc-ok spare block is sized once per kernel table
		sc.one = make([]float64, pool.ScratchLen())
	}
}

// unitDelays is the structure-only answer to a delay query: one unit
// per arc, appended to dst[:0].
func unitDelays(dst []float64, n int) []float64 {
	out := dst[:0]
	for i := 0; i < n; i++ {
		out = append(out, 1)
	}
	return out
}

// ArcDelaysInto is ArcDelays with a caller-supplied buffer: the delays
// are appended to dst[:0] and the (possibly grown) slice returned. In
// steady state — kernel table built, cap(dst) ≥ len(arcs) — the query
// performs no allocations, no map lookups and no string building: each
// arc resolves to an arc ref (the gate, its pin's position among the
// cell's inputs, the vector's Case) in the engine's scratch and from
// there to the run-specialized 2-variable kernels (see kernels.go),
// bit-identical to evaluating the full 4-variable models.
//
// The work runs in two passes over the path (arcDelaysBatched): a
// sequential lane-resolution pass that chains the slew recurrence —
// arc i+1's input transition time is arc i's slew output, an inherent
// data dependence — and a batched delay pass that scores all arcs
// through the struct-of-arrays kernel pool, polyfit.BatchWidth lanes
// per round. Batching changes which arc is evaluated when, never the
// factor or summation order within one arc, so the results are
// bit-identical to evaluating each arc's full 4-variable model alone
// (TestKernelDelaysBitIdentical*).
//
// stalint:noalloc the steady-state query loop is the contract
// (TestArcDelaysSteadyStateAllocs); error paths below carry ignores
func (e *Engine) ArcDelaysInto(dst []float64, arcs []Arc, launchRising bool) ([]float64, error) {
	if e.Lib == nil {
		return unitDelays(dst, len(arcs)), nil
	}
	kt, err := e.kernels()
	if err != nil {
		return nil, err
	}
	kt.queries.Add(int64(len(arcs)))
	refs, rerr := e.ksc.resolve(e.graph, kt, arcs)
	return e.arcDelaysBatched(kt, dst, refs, rerr, launchRising)
}

// refDelaysInto is ArcDelaysInto for the arc refs of a search path,
// which need no resolution: recorded paths are scored from the DFS
// stack.
//
// stalint:noalloc recorded-path scoring shares the query contract
func (e *Engine) refDelaysInto(dst []float64, arcs []arcRef, launchRising bool) ([]float64, error) {
	if e.Lib == nil {
		return unitDelays(dst, len(arcs)), nil
	}
	kt, err := e.kernels()
	if err != nil {
		return nil, err
	}
	kt.queries.Add(int64(len(arcs)))
	return e.arcDelaysBatched(kt, dst, arcs, nil, launchRising)
}

// arcDelaysBatched is the production delay query. Pass 1 walks the
// path sequentially: per arc it addresses the slot of the arc's vector
// and edge, records the delay kernel's pool ID and takes the arc's
// kernel step (arcStep: the lane's power block and the next slew). The
// per-arc error checks (load resolution, uncharacterized kernel,
// non-propagating vector) run here, in path order, so a failure
// surfaces at the exact arc — an uncharacterized one with
// charlib.Library.GateDelay's message. rerr is the error of the arc
// after arcs when the caller's path did not resolve past them
// (resolve); it surfaces once arcs pass. Pass 2 sums every delay lane
// in one tight loop over the pooled arrays (polyfit.Pool.SumBatch) — no
// setup, no pointer chasing between lanes.
//
// stalint:noalloc the batched query path is the search's path-scoring
// hot loop
func (e *Engine) arcDelaysBatched(kt *kernelTable, dst []float64, arcs []arcRef, rerr error, launchRising bool) ([]float64, error) {
	gr := e.graph
	sc := &e.ksc
	pool := kt.pool
	sc.ensure(len(arcs), pool)
	lane := pool.LaneLen()
	slew := e.Opts.InputSlew
	rising := launchRising
	for i, a := range arcs {
		if err := kt.foErr[a.gate]; err != nil {
			return nil, err
		}
		v := gr.vecID(a)
		ei := edgeIndex(rising)
		si := 2*v + int32(ei)
		did := kt.delayID[si]
		if did < 0 {
			na := gr.arc(e.Circuit, a)
			// stalint:ignore noalloc terminal error path; the query is abandoned, not retried
			return nil, fmt.Errorf("charlib: no polynomial arc %s", charlib.PolyKey(na.Gate.Cell.Name, na.Pin, na.Vec.Key(), rising))
		}
		sc.ids[i] = did
		slew = kt.arcStep(si, a.gate, slew, sc.pow[i*lane:], sc.one)
		oe := gr.vecs[v].edge[ei]
		if oe < 0 {
			na := gr.arc(e.Circuit, a)
			// stalint:ignore noalloc terminal error path; the query is abandoned, not retried
			return nil, fmt.Errorf("core: arc %s/%s vector %s does not propagate", na.Gate.Name, na.Pin, na.Vec.Key())
		}
		rising = oe == 1
	}
	if rerr != nil {
		return nil, rerr
	}
	out := dst[:0]
	if cap(out) < len(arcs) {
		// stalint:alloc-ok one-time growth to the longest path scored through this buffer
		out = make([]float64, len(arcs))
	} else {
		out = out[:len(arcs)]
	}
	pool.SumBatch(sc.ids, sc.pow, out)
	n := int64(len(arcs))
	kt.batchLanes.Add(n)
	kt.batchRounds.Add((n + polyfit.BatchWidth - 1) / polyfit.BatchWidth)
	if m := e.Opts.Metrics; m != nil {
		m.KernelBatchFill.ObserveNs(n)
	}
	return out, nil
}

// pathBetter is the canonical ranking shared by sortPaths, the K-worst
// heap and the parallel merge: worst delay descending, then identityLess.
// Dedup guarantees recorded paths have distinct identities, so this is
// a total order — the reason reported results cannot depend on
// enumeration or merge order (DESIGN.md §8).
func pathBetter(a, b *TruePath) bool {
	da, db := a.WorstDelay(), b.WorstDelay()
	// Canonical path order must be exact: the parallel merge is
	// byte-identical to serial only under a strict total order.
	// stalint:ignore floatcmp exact comparison keeps the order total
	if da != db {
		return da > db
	}
	return identityLess(a, b)
}

// identityLess orders paths by their full identity: course key, then
// variant key, then entry pins. The pins matter only when one net
// enters a gate on two pins: the two paths then share their node
// sequence and can share vector cases, cube and edges.
func identityLess(a, b *TruePath) bool {
	if ak, bk := a.CourseKey(), b.CourseKey(); ak != bk {
		return ak < bk
	}
	if ak, bk := a.variantID(), b.variantID(); ak != bk {
		return ak < bk
	}
	for i := 0; i < len(a.Arcs) && i < len(b.Arcs); i++ {
		if pa, pb := a.Arcs[i].Pin, b.Arcs[i].Pin; pa != pb {
			return pa < pb
		}
	}
	return len(a.Arcs) < len(b.Arcs)
}

// sortPaths orders by the canonical total order (worst delay
// descending, ties broken by course and variant keys).
func sortPaths(paths []*TruePath) {
	sort.SliceStable(paths, func(i, j int) bool {
		return pathBetter(paths[i], paths[j])
	})
}
