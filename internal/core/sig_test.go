package core

import (
	"testing"

	"tpsta/internal/circuits"
)

func TestSig128OrderAndDistinctness(t *testing.T) {
	var zero sig128
	a := zero.absorb(1).absorb(2)
	b := zero.absorb(2).absorb(1)
	if a == b {
		t.Error("absorb order did not change the signature")
	}
	if a == zero || b == zero {
		t.Error("absorbing tokens left the zero signature")
	}
	// Distinctness over a family of short token streams: any collision
	// here would mean the mixing is badly broken (the real collision
	// odds are ~2^-128 per pair).
	seen := map[sig128][]uint64{}
	var streams [][]uint64
	for x := uint64(0); x < 50; x++ {
		streams = append(streams, []uint64{x}, []uint64{x, x}, []uint64{x, x + 1}, []uint64{x + 1, x})
	}
	for _, st := range streams {
		s := zero
		for _, x := range st {
			s = s.absorb(x)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("signature collision between token streams %v and %v", prev, st)
		}
		seen[s] = st
	}
}

func TestArcTokenPacking(t *testing.T) {
	// Distinct (gate, pin, case) triples within the field widths must
	// pack to distinct tokens.
	seen := map[uint64][3]int{}
	for _, g := range []int{0, 1, 7, 500, 4095} {
		for pin := 0; pin < 4; pin++ {
			for c := 1; c <= 6; c++ {
				tok := arcToken(g, pin, c)
				key := [3]int{g, pin, c}
				if prev, dup := seen[tok]; dup {
					t.Fatalf("arcToken collision: %v and %v → %#x", prev, key, tok)
				}
				seen[tok] = key
			}
		}
	}
}

func TestPinIndex(t *testing.T) {
	inputs := []string{"A", "B", "C", "D"}
	for i, p := range inputs {
		if got := pinIndex(inputs, p); got != i {
			t.Errorf("pinIndex(%q) = %d, want %d", p, got, i)
		}
	}
	if got := pinIndex(inputs, "Z"); got != 0 {
		t.Errorf("pinIndex(unknown) = %d, want 0", got)
	}
}

// dupEmitSearcher builds a searcher positioned at a completed
// single-node path whose first emit records and every further emit is
// a duplicate — the steady-state record path the dedupe is optimized
// for.
func dupEmitSearcher(t testing.TB) *searcher {
	t.Helper()
	c, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	s := poolSearcher(New(c, nil, nil, Options{}))
	s.start = int32(c.Inputs[0].ID)
	s.aliveR, s.aliveF = true, true
	s.pathSig = sig128{}.absorb(uint64(s.start))
	s.emit() // record once; everything after hits the seen set
	return s
}

// TestEmitDedupeZeroAllocs is the string-churn regression gate: a
// duplicate variant reaching emit must cost zero allocations — no
// string keys, no cube map, no path record. The race detector's
// bookkeeping breaks AllocsPerRun accounting, so the check is skipped
// under -race.
func TestEmitDedupeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := dupEmitSearcher(t)
	before := s.deduped
	allocs := testing.AllocsPerRun(200, s.emit)
	if allocs > 0 {
		t.Errorf("duplicate emit allocates %.1f objects, want 0", allocs)
	}
	if s.deduped <= before {
		t.Fatal("emit did not take the dedupe path")
	}
}

// BenchmarkDedupeEmit measures the steady-state record path: one
// justified variant reaching emit and deduping against the seen set.
// The headline claim is the allocation column — 0 allocs/op, where the
// string-keyed dedupe paid two builders and a join per visit.
func BenchmarkDedupeEmit(b *testing.B) {
	s := dupEmitSearcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.emit()
	}
}
