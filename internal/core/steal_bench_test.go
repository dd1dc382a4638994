package core

import (
	"testing"

	"tpsta/internal/circuits"
)

// BenchmarkWorkStealing times the full enumeration of the skewed
// benchmark topology (circuits.Skewed: three deep launch cones holding
// almost all the search work, eight trivially shallow ones) on a
// one-worker pool (serial: Workers 1, not the GOMAXPROCS default) and
// on a four-worker work-stealing pool, where subtree donation spreads
// the three heavy cones across the pool. The pool row is named
// stealing-w4, not stealing-4: go test appends "-<GOMAXPROCS>" to every
// row name, and a trailing "-<digits>" of the row's own would be
// indistinguishable from that suffix.
func BenchmarkWorkStealing(b *testing.B) {
	c, err := circuits.Get("skew")
	if err != nil {
		b.Fatal(err)
	}
	tc := t130(b)
	modes := []struct {
		name string
		opts Options
	}{
		{"serial", Options{Workers: 1}},
		{"stealing-w4", Options{Workers: 4}},
	}
	wantPaths := -1
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := New(c, tc, nil, m.opts).Enumerate()
				if err != nil {
					b.Fatal(err)
				}
				if wantPaths < 0 {
					wantPaths = len(res.Paths)
				}
				if len(res.Paths) != wantPaths {
					b.Fatalf("%s found %d paths, want %d", m.name, len(res.Paths), wantPaths)
				}
			}
		})
	}
}
