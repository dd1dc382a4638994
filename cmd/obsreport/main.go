// Command obsreport renders an offline report from a JSONL search
// trace (tpsta -trace run.jsonl). Three views of the same file:
//
//   - per-worker timeline lanes: each worker's lifetime as a row of
//     time slices — busy running a unit ('#'), parked idle ('·'),
//     with steals ('S') overlaid at the slice they happened in;
//   - span critical path: the chain of longest-duration spans from the
//     trace root down, with each hop's share of its parent;
//   - hot subtrees: the top-k shard/subtree spans ranked by the
//     sensitization steps they consumed.
//
// It also reproduces the pool's steal/donation counters purely from
// trace events. The scheduler emits "steal" and "donate" at exactly
// the sites that bump the live ParallelStats counters, so the block
// printed here is byte-identical to the "parallel" subset of a
// `tpsta -stats` report from the same run — a cross-check that the
// trace is complete.
//
// Usage:
//
//	obsreport [-top 10] [-width 64] [run.jsonl]
//
// With no file argument the trace is read from stdin.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tpsta/internal/obs"
)

func main() {
	top := flag.Int("top", 10, "hot subtrees to list")
	width := flag.Int("width", 64, "timeline width in slices")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsreport:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	evs, err := readTrace(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, evs, *top, *width); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

// readTrace decodes a JSONL event stream. Unparseable lines abort: a
// corrupt trace should be noticed, not silently summarized.
func readTrace(r io.Reader) ([]obs.Event, error) {
	var evs []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(strings.TrimSpace(string(b))) == 0 {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	return evs, nil
}

// span is one completed span reconstructed from its trace event.
// Start/end are in trace seconds (Event.T stamps the span's end).
type span struct {
	ev         obs.Event
	start, end float64
	children   []*span
}

// trace is the decoded, indexed form of one JSONL file.
type trace struct {
	events  []obs.Event
	spans   map[uint64]*span
	roots   []*span // spans whose parent is 0 or absent from the file
	workers int     // 1 + max worker index seen anywhere

	counters parallelCounters
	donates  []int64 // donations per recipient worker
}

// parallelCounters mirrors the steal/donation subset of
// core.ParallelStats — same field order, same JSON tags — so its
// MarshalIndent output is byte-identical to the corresponding lines of
// a `tpsta -stats` report.
type parallelCounters struct {
	ShardSteals    int64   `json:"shardSteals"`
	SubtreeSteals  int64   `json:"subtreeSteals"`
	Donations      int64   `json:"donations"`
	StealsByWorker []int64 `json:"stealsByWorker"`
}

// index builds the span tree and the reproduced counters.
func index(evs []obs.Event) *trace {
	t := &trace{events: evs, spans: map[uint64]*span{}}
	workers := 0
	note := func(w int) {
		if w+1 > workers {
			workers = w + 1
		}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case "span":
			sp := &span{ev: ev, end: ev.T, start: ev.T - float64(ev.DurNs)/1e9}
			t.spans[ev.Span] = sp
			if ev.Name == "worker" {
				note(ev.Worker)
			}
		case "steal", "donate", "resume":
			note(ev.Worker)
		}
	}
	t.workers = workers
	t.counters.StealsByWorker = make([]int64, workers)
	t.donates = make([]int64, workers)
	for _, ev := range evs {
		switch ev.Kind {
		case "steal":
			t.counters.StealsByWorker[ev.Worker]++
			if ev.Detail == "subtree" {
				t.counters.SubtreeSteals++
			} else {
				t.counters.ShardSteals++
			}
		case "donate":
			t.counters.Donations++
			t.donates[ev.Worker]++
		}
	}
	// Link children; order by start time (ID as a deterministic
	// tie-break) so reports are stable for a given file.
	for _, sp := range t.spans {
		if p, ok := t.spans[sp.ev.Parent]; ok && sp.ev.Parent != sp.ev.Span {
			p.children = append(p.children, sp)
		} else {
			t.roots = append(t.roots, sp)
		}
	}
	byStart := func(s []*span) {
		sort.Slice(s, func(i, j int) bool {
			// stalint:ignore floatcmp exact-value sort tie-break on decoded stamps
			if s[i].start != s[j].start {
				return s[i].start < s[j].start
			}
			return s[i].ev.Span < s[j].ev.Span
		})
	}
	for _, sp := range t.spans {
		byStart(sp.children)
	}
	byStart(t.roots)
	return t
}

// writeReport renders the full report for one decoded trace.
func writeReport(w io.Writer, evs []obs.Event, top, width int) error {
	t := index(evs)
	writeTimeline(w, t, width)
	writeCriticalPath(w, t)
	writeHotSubtrees(w, t, top)
	return writeCounters(w, t)
}

// laneOf collects one worker's busy intervals (its shard/subtree
// spans) and its lifetime (its worker spans — several engines in one
// trace each contribute one).
func laneOf(t *trace, w int) (life, busy []*span) {
	for _, sp := range t.spans {
		if sp.ev.Worker != w {
			continue
		}
		switch sp.ev.Name {
		case "worker":
			life = append(life, sp)
		case "shard", "subtree":
			busy = append(busy, sp)
		}
	}
	return life, busy
}

// writeTimeline renders the per-worker lanes. The time axis spans the
// earliest span start to the latest event stamp in the file.
func writeTimeline(w io.Writer, t *trace, width int) {
	if t.workers == 0 {
		fmt.Fprintf(w, "timeline: no worker activity in trace (no search ran)\n\n")
		return
	}
	if width < 8 {
		width = 8
	}
	t0, t1 := t.events[0].T, t.events[0].T
	for _, ev := range t.events {
		if ev.T > t1 {
			t1 = ev.T
		}
	}
	for _, sp := range t.spans {
		if sp.start < t0 {
			t0 = sp.start
		}
	}
	if t1 <= t0 {
		t1 = t0 + 1e-9
	}
	slice := (t1 - t0) / float64(width)
	col := func(sec float64) int {
		c := int((sec - t0) / slice)
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	fmt.Fprintf(w, "timeline  %.3fs total, %d workers, one slice = %s  (#=busy ·=idle S=steal)\n",
		t1-t0, t.workers, fmtSec(slice))
	for wk := 0; wk < t.workers; wk++ {
		life, busy := laneOf(t, wk)
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = ' '
		}
		paint := func(spans []*span, ch byte) {
			for _, sp := range spans {
				for c := col(sp.start); c <= col(sp.end); c++ {
					lane[c] = ch
				}
			}
		}
		paint(life, '.')
		paint(busy, '#')
		var steals int64
		for _, ev := range t.events {
			if ev.Kind == "steal" && ev.Worker == wk {
				lane[col(ev.T)] = 'S'
				steals++
			}
		}
		var busySec float64
		for _, sp := range busy {
			busySec += sp.end - sp.start
		}
		var lifeSec float64
		for _, sp := range life {
			lifeSec += sp.end - sp.start
		}
		pct := 0.0
		if lifeSec > 0 {
			pct = 100 * busySec / lifeSec
		}
		fmt.Fprintf(w, "  w%-2d |%s| busy %5.1f%%  units %-3d steals %-3d donated-to %d\n",
			wk, lane, pct, len(busy), steals, t.donates[wk])
	}
	fmt.Fprintln(w)
}

// writeCriticalPath walks from the longest root span down through each
// level's longest child — the chain that bounded the run's wall time.
func writeCriticalPath(w io.Writer, t *trace) {
	if len(t.roots) == 0 {
		fmt.Fprintf(w, "critical path: no spans in trace\n\n")
		return
	}
	root := t.roots[0]
	for _, sp := range t.roots {
		if sp.ev.DurNs > root.ev.DurNs {
			root = sp
		}
	}
	fmt.Fprintf(w, "critical path  (longest span chain, %d spans total)\n", len(t.spans))
	indent := ""
	for sp := root; sp != nil; {
		share := ""
		if sp != root {
			share = fmt.Sprintf("  [%2.0f%% of parent]", 100*float64(sp.ev.DurNs)/float64(max64(parentDur(t, sp), 1)))
		}
		fmt.Fprintf(w, "  %s%s  %s  worker %d  steps %d%s\n",
			indent, sp.ev.Name, fmtSec(float64(sp.ev.DurNs)/1e9), sp.ev.Worker, sp.ev.Steps, share)
		var next *span
		for _, c := range sp.children {
			if next == nil || c.ev.DurNs > next.ev.DurNs {
				next = c
			}
		}
		sp = next
		indent += "  "
	}
	fmt.Fprintln(w)
}

func parentDur(t *trace, sp *span) int64 {
	if p, ok := t.spans[sp.ev.Parent]; ok {
		return p.ev.DurNs
	}
	return sp.ev.DurNs
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// writeHotSubtrees ranks the unit spans by the steps they consumed.
func writeHotSubtrees(w io.Writer, t *trace, top int) {
	var units []*span
	for _, sp := range t.spans {
		if sp.ev.Name == "shard" || sp.ev.Name == "subtree" {
			units = append(units, sp)
		}
	}
	if len(units) == 0 {
		fmt.Fprintf(w, "hot subtrees: no unit spans in trace\n\n")
		return
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].ev.Steps != units[j].ev.Steps {
			return units[i].ev.Steps > units[j].ev.Steps
		}
		return units[i].ev.Span < units[j].ev.Span
	})
	if top > len(units) {
		top = len(units)
	}
	fmt.Fprintf(w, "hot subtrees  (top %d of %d units by steps)\n", top, len(units))
	for i := 0; i < top; i++ {
		u := units[i]
		fmt.Fprintf(w, "  %2d. %-7s  worker %-2d  steps %-8d  %s\n",
			i+1, u.ev.Name, u.ev.Worker, u.ev.Steps, fmtSec(u.end-u.start))
	}
	fmt.Fprintln(w)
}

// writeCounters prints the reproduced pool counters. The JSON block is
// marshaled from a struct whose tags and field order mirror
// core.ParallelStats, so these bytes match the same fields inside a
// `tpsta -stats` report of the run the trace came from.
func writeCounters(w io.Writer, t *trace) error {
	if t.workers == 0 {
		return nil
	}
	buf, err := json.MarshalIndent(&t.counters, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parallel counters reproduced from trace events\n%s\n", buf)
	return nil
}

// fmtSec renders a duration with a unit fitting its magnitude.
func fmtSec(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.1fµs", s*1e6)
	default:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
}
