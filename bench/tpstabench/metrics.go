package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names and units (bench_test.go checks that).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of tpsta sees; an untraced run
// reports them.
var endToEnd = []metricDef{
	{"latency_ms", "ms"},  // median wall time of one query
	{"cpu_ms", "ms"},      // median user+system CPU time of one query
	{"peak_rss_mb", "MB"}, // peak resident set size while measuring
	{"setup_s", "s"},      // median of the set-up characterizations
}

// perLayer are the layer counters and times a traced run reports.
// Per-query values are medians over the run's queries; charlib values
// are medians over every characterization the process ran.
var perLayer = []metricDef{
	{"load.ms", "ms"},
	{"charlib.s", "s"},
	{"charlib.sim_cpu_s", "s"},
	{"charlib.fit_cpu_s", "s"},
	{"charlib.utilization", "ratio"},
	{"charlib.arcs", "count"},
	{"charlib.fit_solves", "count"},
	{"charlib.alloc_mb", "MB"},
	{"kernels.build_ms", "ms"},
	{"kernels.arc_queries", "count"},
	{"kernels.batch_fill", "ratio"},
	{"search.s", "s"},
	{"search.steps", "count"},
	{"search.steps_per_s", "1/s"},
	{"search.conflicts", "count"},
	{"search.backtracks", "count"},
	{"search.justify_aborts", "count"},
	{"search.paths_recorded", "count"},
	{"search.paths_deduped", "count"},
	{"search.dedupe_ratio", "ratio"},
	{"search.alloc_mb", "MB"},
	{"search.allocs", "count"},
	{"sched.utilization", "ratio"},
	{"sched.idle_s", "s"},
	{"sched.balance", "ratio"},
	{"sched.steals", "count"},
	{"sched.donations", "count"},
	{"report.ms", "ms"},
	{"verify.ms", "ms"},
	{"verify.paths", "count"},
	{"verify.fail_frac", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"share.characterize", "ratio"},
	{"share.load", "ratio"},
	{"share.search", "ratio"},
	{"share.report", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// sample is one query's per-layer values, summed over its circuits.
type sample map[string]float64

// finish turns the summed helper counters into the reported ratios.
func (s sample) finish() {
	s["search.steps_per_s"] = ratio(s["search.steps"], s["search.s"])
	s["search.dedupe_ratio"] = ratio(s["search.paths_recorded"], s["search.paths_recorded"]+s["search.paths_deduped"])
	s["kernels.batch_fill"] = ratio(s["kernels.batch_fill_rounds"], s["kernels.batch_rounds"])
	s["sched.utilization"] = ratio(s["sched.busy_s"], s["sched.capacity_s"])
	for _, k := range []string{"kernels.batch_fill_rounds", "kernels.batch_rounds", "sched.busy_s", "sched.capacity_s"} {
		delete(s, k)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger collects every observation of each metric in one run.
type ledger map[string][]float64

func (l ledger) add(name string, v float64) { l[name] = append(l[name], v) }

func (l ledger) addSample(s sample) {
	for k, v := range s {
		l.add(k, v)
	}
}

// median returns the median of xs, 0 for none: a serial run never
// books the scheduler metrics.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is the last line the benchmark prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of defs as "workload metric value unit" and
// then the JSON summary line.
func emit(w io.Writer, workload string, defs []metricDef, values map[string]float64, sum summary) error {
	sum.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		sum.Metrics[d.name] = metricValue{v, d.unit}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
