package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tpsta/internal/report"
	"tpsta/sta"
)

// workload is one input set of the benchmark: the circuits a query
// analyzes, the search it runs on each and that search's budget. Why
// each exists is recorded in bench/README.md and BENCHMARK.json.
type workload struct {
	name     string
	circuits []string
	// cone, when set, narrows each circuit to the fanin cone of these
	// outputs as part of loading it.
	cone []string
	// enumerate runs Enumerate (every true path) instead of KWorst(k).
	enumerate   bool
	k           int
	maxSteps    int64
	maxVariants int
	// cold makes each query characterize its own library, as a first
	// tpsta run does; the other workloads reuse the set-up library.
	cold bool
}

var workloads = []workload{
	{name: "cold_c880", circuits: []string{"c880"}, k: 10, maxSteps: 2_000_000, cold: true},
	{name: "kworst_iscas", circuits: []string{"c432", "c880", "c1908"}, k: 10, maxSteps: 2_000_000},
	// The Table 6 caps of the paper's evaluation; all three circuits
	// finish under them, so the path sets are exact.
	{name: "enumerate_table6", circuits: []string{"c432", "c880", "c1908"}, enumerate: true,
		maxSteps: 600_000, maxVariants: 50_000},
	// Product bit 6 of the c6288 multiplier: its cone is small enough to
	// search to completion (so the work is the same at every worker
	// count) and spends it on justification, ~1.8 backtracks per step.
	// Whole-circuit c6288 runs only truncate, and which cones a
	// truncated parallel run reaches changes from run to run.
	{name: "justify_c6288", circuits: []string{"c6288"}, cone: []string{"s81"}, k: 10, maxSteps: 2_000_000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options are the engine options of one search. Workers 0 means
// GOMAXPROCS; the golden run passes 1.
func (w workload) options(workers int) sta.EngineOptions {
	return sta.EngineOptions{Workers: workers, MaxSteps: w.maxSteps, MaxVariants: w.maxVariants}
}

// search runs the workload's search on one engine.
func (w workload) search(eng *sta.Engine) (*sta.Result, error) {
	if w.enumerate {
		return eng.Enumerate()
	}
	return eng.KWorst(w.k)
}

const (
	techName    = "130nm"
	setupReps   = 3 // set-up runs per process; setup_s is their median
	minQueries  = 2 // queries run even when the first already fills the window
	verifyQuota = 1000
)

// runner holds one process's state: the technology, the circuits'
// netlist text, the golden expectations and the per-layer ledger.
type runner struct {
	w      workload
	tc     *sta.Tech
	texts  map[string][]byte
	golden map[string]expect
	order  []string // the seed's permutation of w.circuits
	rng    *rand.Rand
	ledger ledger
	// tr is the span tracer of a traced run (nil otherwise); spans are
	// recorded only around the harness's calls into each layer, never
	// inside the engine.
	tr   sta.Tracer
	root sta.SpanID
	log  io.Writer
}

func newRunner(w workload, seed int64, g *golden, log io.Writer) (*runner, error) {
	tc, err := sta.TechByName(techName)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, tc: tc, texts: map[string][]byte{}, rng: rand.New(rand.NewSource(seed)),
		ledger: ledger{}, log: log}
	if g != nil {
		r.golden = g.Workloads[w.name]
		for _, c := range w.circuits {
			if _, ok := r.golden[c]; !ok {
				return nil, fmt.Errorf("golden.json has no %s/%s entry; rerun -write-golden", w.name, c)
			}
		}
	}
	for _, i := range r.rng.Perm(len(w.circuits)) {
		r.order = append(r.order, w.circuits[i])
	}
	// The registry circuits are cached in-process, so each query loads
	// its netlist from .bench text instead: the parser is the load layer
	// a tpsta -bench user pays on every run.
	for _, c := range w.circuits {
		cir, err := sta.BuiltinCircuit(c)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := sta.WriteBench(&b, cir); err != nil {
			return nil, fmt.Errorf("render %s: %w", c, err)
		}
		r.texts[c] = b.Bytes()
	}
	return r, nil
}

// characterize builds the quick-grid library and books its counters in
// the ledger.
func (r *runner) characterize(parent sta.SpanID, tr sta.Tracer) (*sta.Library, time.Duration, error) {
	var lib *sta.Library
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := layer(tr, parent, "characterize", func() (err error) {
		lib, err = sta.Characterize(r.tc, sta.QuickGrid())
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, d, err
	}
	st := lib.Stats
	r.ledger.add("charlib.s", d.Seconds())
	r.ledger.add("charlib.sim_cpu_s", st.SimSeconds)
	r.ledger.add("charlib.fit_cpu_s", st.FitSeconds)
	r.ledger.add("charlib.utilization", st.Utilization)
	r.ledger.add("charlib.arcs", float64(st.Arcs))
	r.ledger.add("charlib.fit_solves", float64(st.FitSolves))
	r.ledger.add("charlib.alloc_mb", mb(m1.TotalAlloc-m0.TotalAlloc))
	return lib, d, nil
}

// setup characterizes the library setupReps times and returns the last
// library with the median set-up time.
func (r *runner) setup() (*sta.Library, float64, error) {
	sp := sta.StartSpan(r.tr, r.root, "setup")
	defer sp.End()
	var lib *sta.Library
	var secs []float64
	for i := 0; i < setupReps; i++ {
		l, d, err := r.characterize(sp.ID(), r.tr)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		lib = l
		secs = append(secs, d.Seconds())
		fmt.Fprintf(r.log, "%s: setup %d/%d %.2fs (%d arcs)\n", r.w.name, i+1, setupReps, d.Seconds(), l.Stats.Arcs)
	}
	return lib, median(secs), nil
}

// layer times fn, inside a span named name when tr is set.
func layer(tr sta.Tracer, parent sta.SpanID, name string, fn func() error) (time.Duration, error) {
	sp := sta.StartSpan(tr, parent, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	return d, err
}

// load parses a circuit's netlist and narrows it to the workload's cone.
func (r *runner) load(c string) (*sta.Circuit, error) {
	cir, err := sta.ParseBench(c, bytes.NewReader(r.texts[c]))
	if err != nil || r.w.cone == nil {
		return cir, err
	}
	return sta.ExtractCone(cir, r.w.cone)
}

// outcome is one circuit's result within a query.
type outcome struct {
	cir *sta.Circuit
	res *sta.Result
}

// query is one closed-loop request: for a cold workload it
// characterizes the library first, then it loads, searches and reports
// each circuit in the seed's order. The returned latency covers exactly
// that work; checking the results against the golden is not part of it.
func (r *runner) query(lib *sta.Library, traced bool) (lat, cpu time.Duration, outs map[string]outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var tr sta.Tracer
	if traced {
		tr = r.tr
	}
	s := sample{}
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	c0 := cpuTime()
	qs := sta.StartSpan(tr, r.root, "query")
	t0 := time.Now()
	if r.w.cold {
		if lib, _, err = r.characterize(qs.ID(), tr); err != nil {
			return 0, 0, nil, err
		}
	}
	outs = map[string]outcome{}
	for _, c := range r.order {
		o, err := r.circuit(lib, c, qs.ID(), tr, s)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("%s: %w", c, err)
		}
		outs[c] = o
	}
	lat = time.Since(t0)
	qs.End()
	cpu = cpuTime() - c0
	runtime.ReadMemStats(&g1)
	s["gc.cycles"] = float64(g1.NumGC - g0.NumGC)
	s["gc.pause_ms"] = float64(g1.PauseTotalNs-g0.PauseTotalNs) / 1e6
	s.finish()
	r.ledger.addSample(s)
	return lat, cpu, outs, nil
}

// circuit loads, searches and reports one circuit, adding its layer
// counters to s.
func (r *runner) circuit(lib *sta.Library, c string, parent sta.SpanID, tr sta.Tracer, s sample) (outcome, error) {
	var o outcome
	d, err := layer(tr, parent, "load["+c+"]", func() (err error) {
		o.cir, err = r.load(c)
		return err
	})
	if err != nil {
		return o, err
	}
	s["load.ms"] += ms(d)

	var eng *sta.Engine
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err = layer(tr, parent, "search["+c+"]", func() (err error) {
		eng = sta.NewEngine(o.cir, r.tc, lib, r.w.options(0))
		o.res, err = r.w.search(eng)
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return o, err
	}
	st, ks, ps := eng.Stats(), eng.KernelStats(), eng.ParallelStats()
	s["search.s"] += d.Seconds()
	s["search.steps"] += float64(o.res.Steps)
	s["search.conflicts"] += float64(st.Conflicts)
	s["search.backtracks"] += float64(st.Backtracks)
	s["search.justify_aborts"] += float64(st.JustificationAborts)
	s["search.paths_recorded"] += float64(st.PathsRecorded)
	s["search.paths_deduped"] += float64(st.PathsDeduped)
	s["search.alloc_mb"] += mb(m1.TotalAlloc - m0.TotalAlloc)
	s["search.allocs"] += float64(m1.Mallocs - m0.Mallocs)
	s["kernels.build_ms"] += ks.BuildSeconds * 1e3
	s["kernels.arc_queries"] += float64(ks.ArcQueries)
	s["kernels.batch_rounds"] += float64(ks.BatchRounds)
	s["kernels.batch_fill_rounds"] += ks.BatchFill * float64(ks.BatchRounds)
	if ps.Workers > 1 {
		s["sched.busy_s"] += sum(ps.BusySeconds)
		s["sched.capacity_s"] += float64(ps.Workers) * ps.WallSeconds
		s["sched.idle_s"] += sum(ps.IdleSeconds)
		s["sched.steals"] += float64(ps.ShardSteals + ps.SubtreeSteals)
		s["sched.donations"] += float64(ps.Donations)
		if ps.Balance > s["sched.balance"] {
			s["sched.balance"] = ps.Balance
		}
	}

	d, err = layer(tr, parent, "report["+c+"]", func() error {
		return render(io.Discard, c, o.res, r.w.enumerate)
	})
	if err != nil {
		return o, err
	}
	s["report.ms"] += ms(d)
	return o, nil
}

// render writes the user-facing report: the K-worst path table tpsta
// prints, or a Table 6 summary row for an enumeration.
func render(w io.Writer, c string, res *sta.Result, enumerate bool) error {
	if enumerate {
		worst := 0.0
		if len(res.Paths) > 0 {
			worst = res.Paths[0].WorstDelay()
		}
		return report.New("true-path enumeration", "circuit", "paths", "courses", "multi-vector courses", "steps", "worst(ps)").
			Row(c, len(res.Paths), res.Courses, res.MultiVectorCourses, res.Steps, report.Ps(worst)).Render(w)
	}
	tb := report.New(fmt.Sprintf("%s: %d worst true paths", c, len(res.Paths)),
		"#", "delay(ps)", "edge", "path [cell.pin#case]")
	for i, p := range res.Paths {
		edge := "rise"
		if p.FallDelay >= p.RiseDelay {
			edge = "fall"
		}
		tb.Row(i+1, report.Ps(p.WorstDelay()), edge, p.String())
	}
	return tb.Render(w)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the
// current resident size, so peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak resident set size since the last reset.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
