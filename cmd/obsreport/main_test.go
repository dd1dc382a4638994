package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/obs"
	"tpsta/internal/tech"
)

// liveTrace runs a parallel search with a JSONL tracer and returns the
// trace bytes alongside the engine's own pool snapshot.
func liveTrace(t *testing.T) ([]byte, core.ParallelStats) {
	t.Helper()
	c, err := circuits.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	e := core.New(c, tc, nil, core.Options{
		Workers:        2,
		StealPollSteps: 1,
		Tracer:         tr,
	})
	if _, err := e.Enumerate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), e.ParallelStats()
}

// TestCounterParity is the obsreport contract: the steal/donation
// counters reproduced purely from trace events must match — byte for
// byte, through the same JSON tags — the corresponding subset of the
// live ParallelStats a `tpsta -stats` report would record for the run.
func TestCounterParity(t *testing.T) {
	raw, ps := liveTrace(t)
	evs, err := readTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tr := index(evs)

	want, err := json.MarshalIndent(&parallelCounters{
		ShardSteals:    ps.ShardSteals,
		SubtreeSteals:  ps.SubtreeSteals,
		Donations:      ps.Donations,
		StealsByWorker: ps.StealsByWorker,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(&tr.counters, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("reproduced counters differ from live stats:\ngot\n%s\nwant\n%s", got, want)
	}

	// The rendered report must embed exactly those bytes.
	var report bytes.Buffer
	if err := writeReport(&report, evs, 5, 48); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report.Bytes(), want) {
		t.Errorf("report does not embed the counters block:\n%s", report.String())
	}
}

// TestReportSections checks the report renders every section on a real
// parallel trace: one lane per worker, a critical path rooted at the
// search span, and a hot-subtree ranking.
func TestReportSections(t *testing.T) {
	raw, ps := liveTrace(t)
	evs, err := readTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeReport(&out, evs, 5, 48); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"timeline",
		"critical path",
		"enumerate",
		"hot subtrees",
		"parallel counters",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for w := 0; w < ps.Workers; w++ {
		lane := "w" + string(rune('0'+w))
		if !strings.Contains(report, lane) {
			t.Errorf("report lacks a lane for worker %d:\n%s", w, report)
		}
	}
}

// TestReadTraceErrors covers the parser's failure modes: corrupt lines
// abort with a line number, an empty stream is rejected.
func TestReadTraceErrors(t *testing.T) {
	if _, err := readTrace(strings.NewReader("{\"kind\":\"done\"}\nnot json\n")); err == nil {
		t.Error("corrupt line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("corrupt-line error lacks the line number: %v", err)
	}
	if _, err := readTrace(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestSerialTraceReport keeps obsreport useful on traces with few or
// no worker lanes. A trace with no search (a root span and its load
// phase, like a tpsta -sdf run) must still render its span chain with
// an explicit no-activity note. A Workers 1 search is the one-worker
// pool and must render exactly one lane.
func TestSerialTraceReport(t *testing.T) {
	report := func(emit func(obs.Tracer)) string {
		t.Helper()
		var buf bytes.Buffer
		tr := obs.NewJSONL(&buf)
		emit(tr)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := readTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := writeReport(&out, evs, 5, 48); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	out := report(func(tr obs.Tracer) {
		run := obs.StartSpan(tr, 0, "run")
		obs.StartSpan(tr, run.ID(), "load").End()
		run.End()
	})
	if !strings.Contains(out, "no worker activity") {
		t.Errorf("search-free report lacks the no-activity note:\n%s", out)
	}
	if !strings.Contains(out, "load") {
		t.Errorf("search-free report lacks the span chain:\n%s", out)
	}

	c, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	out = report(func(tr obs.Tracer) {
		e := core.New(c, nil, nil, core.Options{Tracer: tr, Workers: 1})
		if _, err := e.Enumerate(); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, ", 1 workers,") || !strings.Contains(out, "  w0 ") || strings.Contains(out, "  w1 ") {
		t.Errorf("Workers 1 report does not render exactly one lane:\n%s", out)
	}
	if !strings.Contains(out, "enumerate") {
		t.Errorf("Workers 1 report lacks the search span:\n%s", out)
	}
}
