package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// spanEvent is the part of a JSONL trace event the self-time table
// reads.
type spanEvent struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	DurNs  int64  `json:"durNs"`
}

// layerTimes is a span trace folded by layer (span name up to '[').
type layerTimes struct {
	self  map[string]time.Duration // duration minus the child spans
	total map[string]time.Duration // summed span durations
	// inQuery is the self time of the spans directly under a "query"
	// span: the layers a measured query runs.
	inQuery map[string]time.Duration
}

// readLayerTimes folds a JSONL span trace into per-layer times. The
// harness is single-threaded, so child spans never overlap and a span's
// self time is its duration minus its children's.
func readLayerTimes(r io.Reader) (layerTimes, error) {
	var spans []spanEvent
	names := map[uint64]string{}
	children := map[uint64]time.Duration{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev spanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return layerTimes{}, fmt.Errorf("trace: %w", err)
		}
		if ev.Kind != "span" {
			continue
		}
		ev.Name, _, _ = strings.Cut(ev.Name, "[")
		spans = append(spans, ev)
		names[ev.Span] = ev.Name
		children[ev.Parent] += time.Duration(ev.DurNs)
	}
	if err := sc.Err(); err != nil {
		return layerTimes{}, fmt.Errorf("trace: %w", err)
	}
	lt := layerTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}, inQuery: map[string]time.Duration{}}
	for _, sp := range spans {
		self := time.Duration(sp.DurNs) - children[sp.Span]
		lt.total[sp.Name] += time.Duration(sp.DurNs)
		lt.self[sp.Name] += self
		if names[sp.Parent] == "query" {
			lt.inQuery[sp.Name] += self
		}
	}
	return lt, nil
}

// print writes each layer's self time and its share of the traced run.
func (lt layerTimes) print(w io.Writer) {
	run := lt.total["workload"].Seconds()
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	fmt.Fprintf(w, "%-14s %10s %7s\n", "span", "self(s)", "share")
	for _, n := range names {
		s := lt.self[n].Seconds()
		fmt.Fprintf(w, "%-14s %10.3f %6.1f%%\n", n, s, 100*ratio(s, run))
	}
}

// shares sets each query layer's self time as a share of the traced
// queries' wall time, and their sum as the trace's coverage.
func (lt layerTimes) shares(values map[string]float64) {
	q := lt.total["query"].Seconds()
	covered := 0.0
	for _, layer := range []string{"characterize", "load", "search", "report"} {
		s := lt.inQuery[layer].Seconds()
		values["share."+layer] = ratio(s, q)
		covered += s
	}
	values["trace.coverage"] = ratio(covered, q)
}
