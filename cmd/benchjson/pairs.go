package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The -pairs mode summarizes alternating end-to-end benchmark runs, the
// log `make bench-pairs` writes: one JSON line per bench/run.sh run,
//
//	{"pair": 3, "side": "change", "result": <bench/run.sh summary line>}
//
// with side "parent" (the BASE build) or "change" (the working tree).
// For each end-to-end metric of BENCHMARK.json it prints the median and
// quartiles of each side's runs, the pairs the change won, and whether
// the change's median is past the metric's bound; the same figures go
// to stdout as JSON, in the end_to_end shape of the BENCH_*.json
// artifacts.

// pairRun is one line of a pairs log.
type pairRun struct {
	Pair   int    `json:"pair"`
	Side   string `json:"side"`
	Result *struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// endToEnd is one end-to-end metric of BENCHMARK.json.
type endToEnd struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spread is the median and quartiles of one side's runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// pairMetric is one metric's summary over the pairs.
type pairMetric struct {
	Parent spread `json:"parent"`
	Change spread `json:"change"`
	// Wins counts the pairs in which the change was better.
	Wins int `json:"wins"`
	// PastBound marks a change median worse than the parent's by more
	// than the metric's BENCHMARK.json bound.
	PastBound bool `json:"past_bound,omitempty"`
}

// pairSummary is the -pairs output.
type pairSummary struct {
	Pairs    int                   `json:"pairs"`
	EndToEnd map[string]pairMetric `json:"end_to_end"`
}

// quartiles returns the median of xs and the medians of its lower and
// upper halves (the middle value belongs to neither when the count is
// odd).
func quartiles(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	half := len(s) / 2
	if half == 0 {
		return spread{Median: median(s), Q1: median(s), Q3: median(s)}
	}
	return spread{Median: median(s), Q1: median(s[:half]), Q3: median(s[len(s)-half:])}
}

// readPairs parses a pairs log and pairs its runs up: every pair must
// have exactly one correct run per side.
func readPairs(r io.Reader) (parent, change []map[string]float64, err error) {
	byPair := map[int][2]map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var run pairRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", line, err)
		}
		if run.Result == nil || !run.Result.Correct {
			return nil, nil, fmt.Errorf("line %d: pair %d %s: the run failed or disagreed with its golden", line, run.Pair, run.Side)
		}
		side := 0
		switch run.Side {
		case "parent":
		case "change":
			side = 1
		default:
			return nil, nil, fmt.Errorf("line %d: side %q, want parent or change", line, run.Side)
		}
		p := byPair[run.Pair]
		if p[side] != nil {
			return nil, nil, fmt.Errorf("line %d: pair %d has two %s runs", line, run.Pair, run.Side)
		}
		p[side] = map[string]float64{}
		for name, m := range run.Result.Metrics {
			p[side][name] = m.Value
		}
		byPair[run.Pair] = p
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	pairs := make([]int, 0, len(byPair))
	for i := range byPair {
		pairs = append(pairs, i)
	}
	sort.Ints(pairs)
	for _, i := range pairs {
		p := byPair[i]
		if p[0] == nil || p[1] == nil {
			return nil, nil, fmt.Errorf("pair %d lacks a run on one side", i)
		}
		parent, change = append(parent, p[0]), append(change, p[1])
	}
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("no runs")
	}
	return parent, change, nil
}

// summarizePairs folds paired runs into one pairMetric per end-to-end
// metric.
func summarizePairs(parent, change []map[string]float64, metrics []endToEnd) (pairSummary, error) {
	sum := pairSummary{Pairs: len(parent), EndToEnd: map[string]pairMetric{}}
	for _, m := range metrics {
		var ps, cs []float64
		wins := 0
		for i := range parent {
			p, okP := parent[i][m.Name]
			c, okC := change[i][m.Name]
			if !okP || !okC {
				return pairSummary{}, fmt.Errorf("pair %d lacks metric %s", i+1, m.Name)
			}
			ps, cs = append(ps, p), append(cs, c)
			if (m.Better == "lower" && c < p) || (m.Better == "higher" && c > p) {
				wins++
			}
		}
		pm := pairMetric{Parent: quartiles(ps), Change: quartiles(cs), Wins: wins}
		switch m.Better {
		case "lower":
			pm.PastBound = pm.Change.Median > pm.Parent.Median*(1+m.Bound)
		case "higher":
			pm.PastBound = pm.Change.Median < pm.Parent.Median*(1-m.Bound)
		default:
			return pairSummary{}, fmt.Errorf("metric %s: better %q, want lower or higher", m.Name, m.Better)
		}
		sum.EndToEnd[m.Name] = pm
	}
	return sum, nil
}

// runPairs is the -pairs mode: it reads the log at path and the bounds
// in benchmarkJSON, writes the table to w and the JSON summary to out,
// and reports how many metrics are past their bound.
func runPairs(path, benchmarkJSON string, w, out io.Writer) (int, error) {
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return 0, err
	}
	var bench struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return 0, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	parent, change, err := readPairs(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	sum, err := summarizePairs(parent, change, bench.EndToEnd)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	past := 0
	fmt.Fprintf(w, "benchjson: %d pairs from %s (median [q1, q3])\n", sum.Pairs, path)
	for _, m := range bench.EndToEnd {
		pm := sum.EndToEnd[m.Name]
		verdict := "ok"
		if pm.PastBound {
			verdict = fmt.Sprintf("PAST BOUND (%.0f%%)", m.Bound*100)
			past++
		}
		delta := 0.0
		if pm.Parent.Median > 0 {
			delta = pm.Change.Median/pm.Parent.Median - 1
		}
		fmt.Fprintf(w, "benchjson: %-12s parent %10.2f [%.2f, %.2f]  change %10.2f [%.2f, %.2f]  %+6.1f%%  wins %d/%d  %s\n",
			m.Name, pm.Parent.Median, pm.Parent.Q1, pm.Parent.Q3,
			pm.Change.Median, pm.Change.Q1, pm.Change.Q3, delta*100, pm.Wins, sum.Pairs, verdict)
	}
	buf, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		return 0, err
	}
	_, err = out.Write(append(buf, '\n'))
	return past, err
}
