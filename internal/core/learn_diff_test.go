package core

import (
	"fmt"
	"testing"

	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
)

// Differential layer for conflict-driven nogood learning: learning may
// only ever skip provably-dead subtrees, so every report a learn-on run
// emits must be byte-identical to the learn-off run — same paths, same
// vectors, cubes, edges and bit-exact delays, same course counts — at
// every worker count, for every search mode. Only the step/conflict
// counters may (and should) shrink. make check runs this file under the
// race detector, which also exercises the lock-free nogood exchange.

// learnWorkerCounts is the issue-mandated matrix {1, 2, 4, 8}: serial,
// undersubscribed, typical and oversubscribed pools.
func learnWorkerCounts() []int { return []int{1, 2, 4, 8} }

// learnCircuits extends the differential subjects with the two
// learning showcases: a reconvergent array multiplier (the c6288 class
// the paper's exhaustive exploration struggles with) and a skewed
// circuit whose deep cone re-discovers the same conflicts in many
// subtrees.
func learnCircuits(t testing.TB) map[string]*netlist.Circuit {
	t.Helper()
	out := diffCircuits(t)
	mult, err := circuits.Multiplier("m", 3)
	if err != nil {
		t.Fatal(err)
	}
	out["mult"] = mult
	skew, err := circuits.Skewed("skewS", 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	out["skew"] = skew
	return out
}

// assertLearnInvariantStats checks the counters that learning must not
// change: recorded/deduped path totals are properties of the justified
// emission set, which pruning dead subtrees cannot touch.
func assertLearnInvariantStats(t *testing.T, label string, off, on *Result) {
	t.Helper()
	if on.Stats.PathsRecorded != off.Stats.PathsRecorded ||
		on.Stats.PathsDeduped != off.Stats.PathsDeduped {
		t.Errorf("%s: learning changed the emission counters: recorded %d/%d deduped %d/%d",
			label, on.Stats.PathsRecorded, off.Stats.PathsRecorded,
			on.Stats.PathsDeduped, off.Stats.PathsDeduped)
	}
	if on.Steps > off.Steps {
		t.Errorf("%s: learning increased steps %d > %d", label, on.Steps, off.Steps)
	}
}

func TestLearningDifferentialEnumerate(t *testing.T) {
	tc := t130(t)
	for name, c := range learnCircuits(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			off, err := New(c, tc, nil, Options{Workers: 1}).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range learnWorkerCounts() {
				on, err := New(c, tc, nil, Options{Workers: w, Learning: true}).Enumerate()
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				label := fmt.Sprintf("%s/learn/workers=%d", name, w)
				assertSameResult(t, label, off, on, false)
				assertLearnInvariantStats(t, label, off, on)
			}
		})
	}
}

func TestLearningDifferentialKWorst(t *testing.T) {
	tc := t130(t)
	lib := charLib130(t)
	for _, name := range []string{"fig4", "c17", "mult"} {
		c := learnCircuits(t)[name]
		useLib := lib
		if name == "mult" {
			useLib = nil // AOI cells of the array are uncharacterized
		}
		for _, k := range []int{1, 5} {
			k := k
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				off, err := New(c, tc, useLib, Options{Workers: 1}).KWorst(k)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range learnWorkerCounts() {
					on, err := New(c, tc, useLib, Options{Workers: w, Learning: true}).KWorst(k)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					assertSameResult(t, fmt.Sprintf("%s/k=%d/learn/workers=%d", name, k, w), off, on, false)
				}
			})
		}
	}
}

func TestLearningDifferentialCourse(t *testing.T) {
	tc := t130(t)
	c := courseCircuit(t)
	course := []string{"a", "n1", "out"}
	off, err := New(c, tc, nil, Options{Workers: 1}).EnumerateCourse(course)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range learnWorkerCounts() {
		on, err := New(c, tc, nil, Options{Workers: w, Learning: true}).EnumerateCourse(course)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("course/learn/workers=%d", w), off, on, false)
	}
	fig4, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	crit := circuits.Fig4CriticalPath()
	offC, err := New(fig4, tc, nil, Options{Workers: 1}).EnumerateCourse(crit)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range learnWorkerCounts() {
		on, err := New(fig4, tc, nil, Options{Workers: w, Learning: true}).EnumerateCourse(crit)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("fig4-crit/learn/workers=%d", w), offC, on, false)
	}
}

// Truncated-budget runs: learning prunes decisions before they draw on
// the step budget, so a learn-on truncated run must (a) still perform
// exactly the configured number of charged attempts, and (b) report a
// strict subset of the serial untruncated learn-off set — the same
// contract the unlearned truncated runs honor.
func TestLearningTruncatedSubset(t *testing.T) {
	tc := t130(t)
	subjects := map[string]*netlist.Circuit{
		"rcap": genCircuit(t, circuits.Profile{
			Name: "rcap", Inputs: 8, Outputs: 4, Gates: 40, Depth: 6, Seed: 99}),
	}
	mult, err := circuits.Multiplier("m", 3)
	if err != nil {
		t.Fatal(err)
	}
	subjects["mult"] = mult
	for name, c := range subjects {
		c := c
		t.Run(name, func(t *testing.T) {
			full, err := New(c, tc, nil, Options{Workers: 1}).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			known := map[string]*TruePath{}
			for _, p := range full.Paths {
				known[pathID(p)] = p
			}
			// The learned search needs fewer attempts for the same paths;
			// budget below *its* total so every pool size truly truncates.
			onFull, err := New(c, tc, nil, Options{Workers: 1, Learning: true}).Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			budget := onFull.Steps/2 + 1
			for _, w := range learnWorkerCounts() {
				res, err := New(c, tc, nil, Options{Workers: w, Learning: true, MaxSteps: budget}).Enumerate()
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !res.Truncated || res.Truncation != TruncMaxSteps {
					t.Fatalf("workers=%d: truncation %v/%v, want true/max-steps",
						w, res.Truncated, res.Truncation)
				}
				if w > 1 && res.Steps != budget {
					t.Errorf("workers=%d: Steps = %d, want exactly the budget %d (prunes must not draw on it)",
						w, res.Steps, budget)
				}
				assertSubsetOfFull(t, res, known)
			}
		})
	}
}

// Satellite regression alongside TestStealStorm: replayed frames
// suppress step and conflict accounting, and the nogood lookup must be
// suppressed with them — a prune during prefix replay would silently
// cut a subtree the donation protocol assigned to the thief and skew
// LearnStats between scheduling modes. White-box: plant a nogood that
// matches a live decision, then re-attempt it under the replaying flag.
func TestLearnReplaySuppression(t *testing.T) {
	c, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, t130(t), nil, Options{Learning: true})
	if err := e.warmShared(); err != nil {
		t.Fatal(err)
	}
	s, err := newSearcher(e)
	if err != nil {
		t.Fatal(err)
	}
	s.aliveR, s.aliveF, s.curRising = true, true, true
	in := c.Inputs[0]
	ref := in.Fanout[0]
	g := ref.Gate
	vec := g.Cell.Vectors(ref.Pin)[0]

	// Plant a nogood whose single condition holds in the pristine store.
	st := s.ng
	st.beginRecord()
	st.noteRead(in.ID, s.values[in.ID])
	st.learn(g, vec, true, true, kindConflict, false)
	if st.stats.Learned != 1 {
		t.Fatalf("planted nogood not learned: %+v", st.stats)
	}

	ran := false
	cont := func() { ran = true }

	// Normal attempt: the planted nogood matches and prunes the decision
	// before it is charged a step.
	s.withVector(g, vec, cont)
	if ran {
		t.Fatal("planted nogood did not prune the live decision")
	}
	if st.stats.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", st.stats.Hits)
	}
	if s.steps != 0 {
		t.Fatalf("pruned decision charged %d steps, want 0", s.steps)
	}

	// Replayed attempt: the lookup is suppressed with the rest of the
	// accounting, so the decision executes and the hit counter is
	// untouched.
	s.replaying = true
	s.withVector(g, vec, cont)
	s.replaying = false
	if !ran {
		t.Fatal("replayed decision was pruned — replay must skip the nogood lookup")
	}
	if st.stats.Hits != 1 {
		t.Fatalf("replayed decision counted a hit: Hits = %d, want 1", st.stats.Hits)
	}
	if s.steps != 0 {
		t.Fatalf("replayed decision charged %d steps, want 0", s.steps)
	}
}

// The steal-storm configuration with learning on: donation poll (and
// nogood exchange) every step, pool far larger than the shard count,
// race detector via make check. The reported paths must still be
// byte-identical to the serial unlearned search, and the donated
// subtrees must have carried clauses with them.
func TestLearnStealStorm(t *testing.T) {
	tc := t130(t)
	c := genCircuit(t, circuits.Profile{
		Name: "rstorm", Inputs: 6, Outputs: 4, Gates: 50, Depth: 7, Seed: 23})
	serial, err := New(c, tc, nil, Options{}).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	e := New(c, tc, nil, Options{Workers: 16, StealPollSteps: 1, Learning: true})
	par, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "learn-steal-storm", serial, par, false)
	ps := e.ParallelStats()
	if ps.Donations == 0 {
		t.Error("steal storm produced no donations")
	}
	if ps.Learn == nil {
		t.Fatal("ParallelStats.Learn missing on a learning run")
	}
	if ps.Learn.Learned == 0 {
		t.Error("steal storm learned no nogoods")
	}
	if got := e.LearnStats(); got != *ps.Learn {
		t.Errorf("engine LearnStats %+v != pool snapshot %+v", got, *ps.Learn)
	}
}
