// Command benchjson converts `go test -bench` output on stdin into the
// repository's recorded benchmark artifact format (see
// BENCH_obs_overhead.json, BENCH_multi_corner.json): a small JSON
// document with the host description, the per-benchmark ns/op, B/op and
// allocs/op figures, and a free-form note.
//
// Usage:
//
//	go test -run '^$' -bench X -benchtime 100x ./pkg | \
//	    go run ./cmd/benchjson -artifact "thing measured" -out BENCH_thing.json
//
// When the input contains the MultiCorner independent/sweep rows, the
// measured comparison is appended to the note automatically so the
// recorded artifact always carries it.
//
// With -compare BASELINE.json the fresh results are also checked
// against a previously recorded artifact: any benchmark present in
// both that got slower in ns/op by more than -tolerance (default 15%),
// or that gained allocations over a zero-alloc baseline, fails the run
// with exit 1, and so does every baseline row the fresh run lacks
// (`make bench-compare`; CI runs it as a non-blocking job because
// shared runners are noisy). With -compare and no -out the fresh
// artifact JSON is not printed — the comparison is the output.
//
// A benchmark run more than once (go test -count N) prints one row per
// run; benchjson keeps every sample and records the median of each
// column, with the samples' ns/op alongside, and -compare checks the
// fresh median against the recorded one.
//
// Row names: go test appends "-<GOMAXPROCS>" to every row when
// GOMAXPROCS > 1, and benchjson strips one trailing "-<digits>" as that
// suffix. A benchmark or sub-benchmark whose own name ends in
// "-<digits>" would therefore be recorded under a different name at
// GOMAXPROCS 1 and 2; name rows so they do not (e.g. "stealing-w4").
//
// With -min-ratio "BEFORE,AFTER,MIN" the fresh results must uphold a
// recorded speedup claim: Bench[BEFORE] must take at least MIN times
// the ns/op of Bench[AFTER] (e.g. the multi-corner sweep's >= 1.5x
// over independent per-corner runs), or the run fails with exit 1.
//
// With -pairs LOG it summarizes end-to-end runs instead (pairs.go):
// the alternating parent/change bench/run.sh runs `make bench-pairs`
// logs, with medians, quartiles and wins per end-to-end metric of the
// BENCHMARK.json in the working directory, the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type report struct {
	Artifact string             `json:"artifact"`
	Date     string             `json:"date"`
	Command  string             `json:"command,omitempty"`
	Host     host               `json:"host"`
	Note     string             `json:"note,omitempty"`
	Workload map[string]string  `json:"workload,omitempty"`
	Bench    map[string]metrics `json:"bench"`
}

type metrics struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	// Samples is the ns/op of every run of a benchmark that ran more
	// than once; the columns above are then their medians.
	Samples []float64 `json:"samples,omitempty"`
}

// benchLine matches one result row, e.g.
// "BenchmarkArcDelays/batched-4   634924   453.0 ns/op   0 B/op   0 allocs/op"
// (the -4 GOMAXPROCS suffix and the memory columns are optional).
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

type workloadFlag map[string]string

func (w workloadFlag) String() string { return "" }
func (w workloadFlag) Set(kv string) error {
	k, v, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("workload %q is not key=value", kv)
	}
	w[k] = v
	return nil
}

func main() {
	r := report{
		Date:     time.Now().Format("2006-01-02"),
		Workload: workloadFlag{},
		Bench:    map[string]metrics{},
		Host: host{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	out := flag.String("out", "", "output file (default stdout; suppressed when -compare is set)")
	compare := flag.String("compare", "", "baseline artifact JSON to compare against (exit 1 on a regression or a missing row)")
	tol := flag.Float64("tolerance", 0.15, "fractional ns/op slowdown tolerated by -compare")
	minRatio := flag.String("min-ratio", "", "BEFORE,AFTER,MIN: require Bench[BEFORE] >= MIN x Bench[AFTER] in ns/op (exit 1 otherwise)")
	pairs := flag.String("pairs", "", "summarize this `make bench-pairs` log of alternating bench/run.sh runs against BENCHMARK.json instead of reading go test output (exit 1 when a change median is past its bound)")
	flag.StringVar(&r.Artifact, "artifact", "", "what the benchmarks measure")
	flag.StringVar(&r.Command, "command", "", "the benchmark command, for reproduction")
	flag.StringVar(&r.Note, "note", "", "free-form interpretation note")
	flag.Var(workloadFlag(r.Workload), "workload", "workload descriptor key=value (repeatable)")
	flag.Parse()

	if *pairs != "" {
		past, err := runPairs(*pairs, "BENCHMARK.json", os.Stderr, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if past > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d end-to-end metric(s) past their bound\n", past)
			os.Exit(1)
		}
		return
	}

	samples := map[string][]metrics{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // keep the raw output visible on the terminal
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			r.Host.CPU = strings.TrimSpace(cpu)
			continue
		}
		if name, mt, ok := parseLine(line); ok {
			samples[name] = append(samples[name], mt)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for name, ms := range samples {
		r.Bench[name] = summarize(ms)
	}
	if len(r.Bench) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if sweep, okS := r.Bench["MultiCorner/sweep"]; okS {
		if ind, okI := r.Bench["MultiCorner/independent"]; okI && sweep.NsPerOp > 0 {
			r.Note = strings.TrimSpace(r.Note + fmt.Sprintf(
				" Measured this run: independent (N full builds) %.0f ns/op vs sweep (one build + N-1 respecializations) %.0f ns/op — %.2fx fewer ns/op.",
				ind.NsPerOp, sweep.NsPerOp, ind.NsPerOp/sweep.NsPerOp))
		}
	}
	buf, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	switch {
	case *out != "":
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", *out)
	case *compare == "":
		os.Stdout.Write(buf)
	}
	if *compare != "" {
		failures, err := compareBaseline(os.Stderr, r.Bench, *compare, *tol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%% or missing against %s\n",
				failures, *tol*100, *compare)
			os.Exit(1)
		}
	}
	if *minRatio != "" {
		if err := checkMinRatio(os.Stderr, r.Bench, *minRatio); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// parseLine extracts one benchmark result row: the name without the
// Benchmark prefix and GOMAXPROCS suffix, and its metric columns.
func parseLine(line string) (string, metrics, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return "", metrics{}, false
	}
	var mt metrics
	mt.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
	if m[3] != "" {
		mt.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
	}
	if m[4] != "" {
		mt.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
	}
	return m[1], mt, true
}

// summarize folds the samples of one benchmark, one per run, into its
// recorded row: the median of each column, with every sample's ns/op
// kept when there is more than one.
func summarize(ms []metrics) metrics {
	col := func(f func(metrics) float64) float64 {
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = f(m)
		}
		return median(xs)
	}
	out := metrics{
		NsPerOp:     col(func(m metrics) float64 { return m.NsPerOp }),
		BytesPerOp:  col(func(m metrics) float64 { return m.BytesPerOp }),
		AllocsPerOp: col(func(m metrics) float64 { return m.AllocsPerOp }),
	}
	if len(ms) > 1 {
		for _, m := range ms {
			out.Samples = append(out.Samples, m.NsPerOp)
		}
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checkMinRatio enforces a recorded speedup claim on the fresh
// results: spec is "BEFORE,AFTER,MIN" and the run fails unless
// Bench[BEFORE].ns/op >= MIN × Bench[AFTER].ns/op.
func checkMinRatio(w io.Writer, bench map[string]metrics, spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-min-ratio %q: want BEFORE,AFTER,MIN", spec)
	}
	before, after := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || min <= 0 {
		return fmt.Errorf("-min-ratio %q: bad minimum ratio %q", spec, parts[2])
	}
	b, okB := bench[before]
	a, okA := bench[after]
	if !okB || !okA {
		return fmt.Errorf("-min-ratio %q: results lack %q and/or %q", spec, before, after)
	}
	if a.NsPerOp <= 0 {
		return fmt.Errorf("-min-ratio %q: %q recorded no ns/op", spec, after)
	}
	ratio := b.NsPerOp / a.NsPerOp
	verdict := "ok"
	if ratio < min {
		verdict = "BELOW MINIMUM"
	}
	fmt.Fprintf(w, "benchjson: %s/%s = %.2fx (minimum %.2fx)  %s\n", before, after, ratio, min, verdict)
	if ratio < min {
		return fmt.Errorf("speedup %.2fx is below the gated minimum %.2fx (%s vs %s)", ratio, min, before, after)
	}
	return nil
}

// compareBaseline checks fresh results against a recorded artifact and
// prints one verdict line per baseline benchmark. A failure is a
// ns/op slowdown beyond tol, any allocations where the baseline
// recorded none (the repository's zero-alloc contracts), or a baseline
// row the fresh run lacks — a renamed or dropped benchmark must be
// re-recorded, not silently skipped.
func compareBaseline(w io.Writer, fresh map[string]metrics, path string, tol float64) (failures int, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return 0, fmt.Errorf("baseline %s: %w", path, err)
	}
	var names, missing []string
	for name := range base.Bench {
		if _, ok := fresh[name]; ok {
			names = append(names, name)
		} else {
			missing = append(missing, name)
		}
	}
	if len(names) == 0 {
		return 0, fmt.Errorf("baseline %s shares no benchmarks with the fresh results", path)
	}
	sort.Strings(names)
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "benchjson: %-40s MISSING from the fresh run\n", name)
	}
	failures = len(missing)
	for _, name := range names {
		b, f := base.Bench[name], fresh[name]
		verdict := "ok"
		var delta float64
		if b.NsPerOp > 0 {
			delta = f.NsPerOp/b.NsPerOp - 1
		}
		if delta > tol {
			verdict = "REGRESSION"
			failures++
		}
		// stalint:ignore floatcmp recorded artifact values are exact JSON literals
		if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
			verdict = "REGRESSION (allocs: 0 -> " + strconv.FormatFloat(f.AllocsPerOp, 'f', -1, 64) + ")"
			failures++
		}
		fmt.Fprintf(w, "benchjson: %-40s %12.0f -> %9.0f ns/op  %+6.1f%%  %s\n",
			name, b.NsPerOp, f.NsPerOp, delta*100, verdict)
	}
	return failures, nil
}
