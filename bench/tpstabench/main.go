// Command tpstabench is the end-to-end benchmark of the tpsta true-path
// timing engine. Each invocation runs one workload in a fresh process:
//
//  1. set-up: characterize the quick-grid timing library three times;
//  2. a closed loop of queries, one after another, for the measured
//     window: each query loads, searches and reports the workload's
//     circuits (a cold query characterizes its own library first);
//  3. every query's results are checked against golden.json, and a
//     seeded sample of paths is re-verified with the functional
//     simulator.
//
// It prints each metric as "workload metric value unit", then a JSON
// summary as the last line of standard output: the end-to-end metrics
// of an untraced run (-trace 0) or the per-layer metrics of a traced
// one (-trace 1). It exits 1 when a query failed or a result disagrees.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	tpstabench -workload kworst_iscas -seed 1 -seconds 8 -trace 0
//	tpstabench -workload justify_c6288 -seed 2 -trace 1 -trace-file t.jsonl
//	tpstabench -write-golden bench/tpstabench/golden.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tpsta/sta"
)

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Int64("seed", 1, "permutes the circuit order and picks the verified paths")
	seconds := flag.Float64("seconds", 8, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 traces the run and reports per-layer metrics, 0 reports end-to-end metrics")
	traceFile := flag.String("trace-file", "", "with -trace 1, also write the span trace (JSONL) here")
	list := flag.Bool("list", false, "list the workloads and exit")
	goldenOut := flag.String("write-golden", "", "run every workload serially and write the golden results here")
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return
	case *goldenOut != "":
		if err := writeGolden(*goldenOut, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "tpstabench:", err)
			os.Exit(2)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds %v: want a positive window", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpstabench:", err)
		os.Exit(2)
	}
	window := time.Duration(*seconds * float64(time.Second))
	correct, err := run(w, *seed, window, *trace == 1, *traceFile, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpstabench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run sets up, measures and checks one workload, then prints its
// metrics. It reports whether every result was correct.
func run(w workload, seed int64, window time.Duration, traced bool, traceFile string, stdout, log io.Writer) (bool, error) {
	g, err := loadGolden()
	if err != nil {
		return false, err
	}
	r, err := newRunner(w, seed, g, log)
	if err != nil {
		return false, err
	}
	var trace bytes.Buffer
	var flush func() error
	if traced {
		t := sta.NewJSONLTracer(&trace)
		r.tr, flush = t, t.Flush
	}
	root := sta.StartSpan(r.tr, 0, "workload")
	r.root = root.ID()

	lib, setupS, err := r.setup()
	if err != nil {
		return false, err
	}
	if err := resetPeakRSS(); err != nil {
		return false, err
	}

	// In a traced run every other query is traced, so the run also
	// measures what tracing costs.
	var lat, cpu, tracedLat, plainLat []float64
	var last map[string]outcome
	attempted, failed := 0, 0
	start := time.Now()
	for attempted < minQueries || time.Since(start) < window {
		tracedQuery := traced && attempted%2 == 0
		attempted++
		// Only the last query's results are verified; holding earlier
		// ones would put two result sets in the peak memory.
		last = nil
		l, c, outs, err := r.query(lib, tracedQuery)
		if err == nil {
			err = r.checkAll(outs)
		}
		if err != nil {
			failed++
			fmt.Fprintf(log, "%s: query %d failed: %v\n", w.name, attempted, err)
			continue
		}
		fmt.Fprintf(log, "%s: query %d: %.1fms, cpu %.1fms\n", w.name, attempted, ms(l), ms(c))
		lat = append(lat, l.Seconds())
		cpu = append(cpu, c.Seconds())
		if tracedQuery {
			tracedLat = append(tracedLat, l.Seconds())
		} else {
			plainLat = append(plainLat, l.Seconds())
		}
		last = outs
	}
	fmt.Fprintf(log, "%s: %d queries in %.2fs, %d failed, median %.1fms\n",
		w.name, attempted, time.Since(start).Seconds(), failed, median(lat)*1e3)
	disagreements := r.verify(last)
	root.End()

	values := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			values[d.name] = median(r.ledger[d.name])
		}
		values["trace.overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
		if err := flush(); err != nil {
			return false, err
		}
		if err := layerReport(trace.Bytes(), traceFile, values, log); err != nil {
			return false, err
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return false, err
		}
		values["latency_ms"] = median(lat) * 1e3
		values["cpu_ms"] = median(cpu) * 1e3
		values["peak_rss_mb"] = rss
		values["setup_s"] = setupS
	}
	correct := failed == 0 && disagreements == 0
	return correct, emit(stdout, w.name, defs, values, summary{Correct: correct, Attempted: attempted, Failed: failed})
}

// layerReport optionally saves the span trace, prints the per-layer
// self-time table and sets the trace-derived metrics.
func layerReport(trace []byte, traceFile string, values map[string]float64, log io.Writer) error {
	if traceFile != "" {
		if err := os.WriteFile(traceFile, trace, 0o644); err != nil {
			return err
		}
	}
	lt, err := readLayerTimes(bytes.NewReader(trace))
	if err != nil {
		return err
	}
	lt.print(log)
	lt.shares(values)
	return nil
}

// checkAll compares one query's results with the golden.
func (r *runner) checkAll(outs map[string]outcome) error {
	for _, c := range r.order {
		if err := check(outs[c].res, r.golden[c]); err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
	}
	return nil
}

// verify re-checks the last correct query's paths with the functional
// simulator. Every rejected path is printed; the ones the golden does
// not list as known disagreements are counted and returned.
func (r *runner) verify(outs map[string]outcome) (unknown int) {
	paths, fails := 0, 0
	var total time.Duration
	for _, c := range r.order {
		o, ok := outs[c]
		if !ok {
			continue
		}
		exp := r.golden[c]
		known := exp.knownFailures()
		set := r.verifySet(o.res, exp)
		d, _ := layer(r.tr, r.root, "verify["+c+"]", func() error {
			for _, p := range set {
				if err := verifyPath(o.cir, p); err != nil {
					fails++
					kind := "known"
					if !known[pathKey(p)] {
						kind = "new"
						unknown++
					}
					fmt.Fprintf(r.log, "verify: %s: %s disagreement on %s: %v\n", c, kind, p, err)
				}
			}
			return nil
		})
		paths += len(set)
		total += d
	}
	r.ledger.add("verify.ms", ms(total))
	r.ledger.add("verify.paths", float64(paths))
	r.ledger.add("verify.fail_frac", ratio(float64(fails), float64(paths)))
	return unknown
}
