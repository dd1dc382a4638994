package core

import (
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/circuits"
	"tpsta/internal/logic"
	"tpsta/internal/netlist"
)

// descend replays the arcs of p from its launch input on s and runs at
// once the path is complete, with the path's constraint state and
// obligations in place.
func descend(t testing.TB, s *searcher, p *TruePath, at func()) {
	t.Helper()
	in := s.c.Node(p.Start)
	s.start = in
	s.aliveR, s.aliveF = true, true
	s.curRising = true
	if !s.assign(in.ID, logic.DualTransition) {
		t.Fatal("launch assignment conflicted")
	}
	s.pathNodes = append(s.pathNodes[:0], in.Name)
	s.pathSig = sig128{}.absorb(uint64(in.ID))
	reached := false
	var step func(i int)
	step = func(i int) {
		if i == len(p.Arcs) {
			reached = true
			at()
			return
		}
		a := p.Arcs[i]
		s.tryArc(a.Gate, a.Pin, a.Vec, func(*netlist.Node) { step(i + 1) })
	}
	step(0)
	if !reached {
		t.Fatalf("replaying %v did not reach its output", p)
	}
}

// TestJustifyZeroAllocs is the allocation gate of justification: record
// on a completion with open obligations — the c6288 product-bit-6 cone's
// worst structural path — justifies on the searcher's one obligation
// stack and must allocate nothing. The completion is recorded once
// first, so emit dedupes and any allocation left is justification's.
// Skipped under -race, whose bookkeeping breaks AllocsPerRun accounting.
func TestJustifyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	full, err := circuits.Get("c6288")
	if err != nil {
		t.Fatal(err)
	}
	c, err := netlist.ExtractCone(full, cell.Default(), []string{"s81"})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := New(c, t130(t), nil, Options{Workers: 1}).KWorst(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(worst.Paths) == 0 {
		t.Fatal("no path in the s81 cone")
	}
	s := poolSearcher(New(c, t130(t), nil, Options{Workers: 1}))
	descend(t, s, worst.Paths[0], func() {
		open := 0
		for _, ob := range s.pending {
			if !s.implied(ob.node, ob.val, ob.strict) {
				open++
			}
		}
		if open == 0 {
			t.Fatalf("%v completes with no open obligation (%d pending)", worst.Paths[0], len(s.pending))
		}
		s.record()
		if s.recorded != 1 {
			t.Fatalf("the completion recorded %d paths, want 1", s.recorded)
		}
		deduped := s.deduped
		allocs := testing.AllocsPerRun(100, s.record)
		if allocs > 0 {
			t.Errorf("record allocates %.1f objects per completion, want 0", allocs)
		}
		if s.deduped <= deduped {
			t.Error("record did not reach the emit dedupe")
		}
		t.Logf("%d open obligations at the completion", open)
	})
}
