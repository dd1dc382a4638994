package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/circuits"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
	"tpsta/internal/obs"
)

// poolSearcher returns the searcher of a one-worker pool
// on e, wired the way runWorker wires it after warming the shared
// tables, for tests that drive the search by hand.
func poolSearcher(e *Engine) *searcher {
	if err := e.warmShared(); err != nil {
		panic(err)
	}
	return newSched(e, nil, 1, 1, "enumerate").searcher(0)
}

// stepSearcher builds a searcher positioned to apply one inverter
// sensitization decision over and over — the minimal withVector
// exercise: accounting, save, (empty) side assertion, restore.
func stepSearcher(t testing.TB, opts Options) (*searcher, int32, int32) {
	t.Helper()
	lib := cell.Default()
	c := netlist.New("chain")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate(lib, "INV", "b", map[string]string{"A": "a"}); err != nil {
		t.Fatal(err)
	}
	c.MarkOutput("b")
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	s := poolSearcher(New(c, nil, nil, opts))
	s.start = int32(c.Inputs[0].ID)
	s.aliveR, s.aliveF = true, true
	s.curRising = true
	if !s.assign(s.start, logic.DualTransition) {
		t.Fatal("launch assignment conflicted")
	}
	g := int32(c.Inputs[0].Fanout[0].Gate.ID)
	return s, g, s.graph.vecID(arcRef{gate: g})
}

// TestSearchStepDisabledZeroAlloc is the obs v2 overhead gate: with no
// tracer, a configured TraceSampleEvery must add zero allocations (and
// zero sampling work) to the search step, and enabling the Metrics
// histograms must stay allocation-free too — Observe is two atomic
// adds.
func TestSearchStepDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	noop := func() {}

	// Sampling requested but no tracer configured: the searcher must
	// force the sample period to zero and the step must not allocate.
	s, g, vi := stepSearcher(t, Options{TraceSampleEvery: 3})
	if s.sampleEvery != 0 {
		t.Fatalf("sampleEvery = %d with a nil tracer, want 0", s.sampleEvery)
	}
	s.withVector(g, vi, noop) // warm the trail's backing array
	allocs := testing.AllocsPerRun(200, func() { s.withVector(g, vi, noop) })
	if allocs > 0 {
		t.Errorf("untraced search step allocates %.1f objects, want 0", allocs)
	}

	// Metrics histograms enabled: still allocation-free.
	m := &Metrics{}
	sm, gm, vim := stepSearcher(t, Options{Metrics: m})
	sm.withVector(gm, vim, noop)
	allocs = testing.AllocsPerRun(200, func() { sm.withVector(gm, vim, noop) })
	if allocs > 0 {
		t.Errorf("metered search step allocates %.1f objects, want 0", allocs)
	}
	if m.StepNs.Count() == 0 {
		t.Error("metered steps recorded no StepNs observations")
	}
}

// decodeTrace parses a JSONL trace buffer.
func decodeTrace(t *testing.T, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	var evs []obs.Event
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not valid JSON (%v): %q", err, sc.Text())
		}
		evs = append(evs, ev)
	}
	return evs
}

// TestParallelTraceTree checks the obs v2 trace contract on a parallel
// run: span events form a tree (search span → worker spans → unit
// spans), scheduler steal/donate/resume events reproduce the
// ParallelStats counters exactly, and sampled step events carry the
// frame signature.
func TestParallelTraceTree(t *testing.T) {
	c, err := circuits.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	m := &Metrics{}
	e := New(c, t130(t), nil, Options{
		Workers:          2,
		StealPollSteps:   1,
		Tracer:           tr,
		TraceSampleEvery: 1,
		Metrics:          m,
	})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, &buf)

	var search obs.Event
	workerSpans := map[uint64]bool{}
	unitSpans := 0
	stealsByWorker := make([]int64, 2)
	var shardSteals, subtreeSteals, donations, resumes, steps int64
	for _, ev := range evs {
		switch ev.Kind {
		case "span":
			switch ev.Name {
			case "enumerate":
				if search.Span != 0 {
					t.Fatal("more than one enumerate span")
				}
				search = ev
			case "worker":
				workerSpans[ev.Span] = true
			case "shard", "subtree":
				unitSpans++
			}
		case "steal":
			stealsByWorker[ev.Worker]++
			switch ev.Detail {
			case "shard":
				shardSteals++
			case "subtree":
				subtreeSteals++
			default:
				t.Fatalf("steal event with detail %q", ev.Detail)
			}
		case "donate":
			donations++
		case "resume":
			resumes++
		case "step":
			steps++
			if len(ev.Sig) != 32 {
				t.Fatalf("step event signature %q, want 32 hex digits", ev.Sig)
			}
		}
	}
	if search.Span == 0 {
		t.Fatal("no enumerate span in trace")
	}
	if search.Steps != res.Steps {
		t.Errorf("enumerate span Steps = %d, want %d", search.Steps, res.Steps)
	}
	if len(workerSpans) != 2 {
		t.Fatalf("worker spans = %d, want 2", len(workerSpans))
	}
	if unitSpans == 0 {
		t.Fatal("no shard/subtree spans in trace")
	}
	if steps == 0 {
		t.Fatal("TraceSampleEvery=1 emitted no step events")
	}

	// Worker and unit spans must parent correctly. Second pass now that
	// the search span is known.
	for _, ev := range evs {
		if ev.Kind != "span" {
			continue
		}
		switch ev.Name {
		case "worker":
			if ev.Parent != search.Span {
				t.Fatalf("worker span parent %d, want %d", ev.Parent, search.Span)
			}
		case "shard", "subtree":
			if !workerSpans[ev.Parent] {
				t.Fatalf("unit span parent %d is not a worker span", ev.Parent)
			}
		}
	}

	// Scheduler events fire at exactly the stats-counter sites, so the
	// trace reproduces the pool snapshot byte-for-byte (the obsreport
	// parity contract).
	ps := e.ParallelStats()
	if shardSteals != ps.ShardSteals || subtreeSteals != ps.SubtreeSteals {
		t.Errorf("trace steals = %d shard + %d subtree, stats = %d + %d",
			shardSteals, subtreeSteals, ps.ShardSteals, ps.SubtreeSteals)
	}
	if donations != ps.Donations {
		t.Errorf("trace donations = %d, stats = %d", donations, ps.Donations)
	}
	for w, n := range stealsByWorker {
		if n != ps.StealsByWorker[w] {
			t.Errorf("trace steals by worker %d = %d, stats = %d", w, n, ps.StealsByWorker[w])
		}
	}
	// Every donated unit runs (no caps in this test), so each donation
	// is resumed exactly once, on whichever worker picked it up.
	if resumes != donations {
		t.Errorf("trace resumes = %d, donations = %d", resumes, donations)
	}

	if m.StepNs.Count() == 0 || m.EmitNs.Count() == 0 {
		t.Errorf("metrics histograms empty: steps %d, emits %d",
			m.StepNs.Count(), m.EmitNs.Count())
	}
}

// TestMetricsSnapshot checks the engine's OpenMetrics source: counters
// mirror SearchStats, parallel counters mirror ParallelStats, and the
// histogram bundle rides along.
func TestMetricsSnapshot(t *testing.T) {
	c, err := circuits.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	e := New(c, t130(t), nil, Options{Workers: 2, Metrics: m})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	if got := snap.Counters[metSteps]; got != res.Stats.SensitizationAttempts {
		t.Errorf("counter %s = %d, want %d", metSteps, got, res.Stats.SensitizationAttempts)
	}
	if got := snap.Counters[metRecorded]; got != res.Stats.PathsRecorded {
		t.Errorf("counter %s = %d, want %d", metRecorded, got, res.Stats.PathsRecorded)
	}
	if got := snap.Gauges[metWorkers]; got != 2 {
		t.Errorf("gauge %s = %d, want 2", metWorkers, got)
	}
	h, ok := snap.Histograms[metStepNs]
	if !ok || h.Count == 0 {
		t.Fatalf("histogram %s missing or empty: %+v", metStepNs, h)
	}
	// A one-worker pool observes StepNs exactly once per counted step
	// (it never donates, so nothing is replayed).
	es := New(c, t130(t), nil, Options{Workers: 1, Metrics: &Metrics{}})
	sres, err := es.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if n := es.Opts.Metrics.StepNs.Count(); n != sres.Stats.SensitizationAttempts {
		t.Errorf("serial StepNs count = %d, want %d", n, sres.Stats.SensitizationAttempts)
	}
}
