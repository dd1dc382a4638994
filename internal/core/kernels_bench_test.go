package core

import (
	"testing"
)

// benchArcs returns a warmed delay engine and the arcs of the slowest
// enumerated fig4 path — the representative steady-state query load.
func benchArcs(b *testing.B) (*Engine, []Arc) {
	b.Helper()
	e := delayEngine(b, "fig4", 1)
	res, err := e.Enumerate()
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Paths) == 0 {
		b.Fatal("no paths")
	}
	return e, res.Paths[0].Arcs
}

// BenchmarkArcDelays times the steady-state arc-delay query on the
// production struct-of-arrays path (dense slots, pooled kernels,
// BatchWidth-lane evaluation) with a reused output buffer.
func BenchmarkArcDelays(b *testing.B) {
	e, arcs := benchArcs(b)
	b.Run("batched", func(b *testing.B) {
		buf := make([]float64, 0, len(arcs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = e.ArcDelaysInto(buf, arcs, true)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKWorstDelay runs the delay-mode branch-and-bound search end
// to end — bound-table build, pruned enumeration and path scoring all
// ride on the kernel layer.
func BenchmarkKWorstDelay(b *testing.B) {
	e := delayEngine(b, "fig4", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.KWorst(5); err != nil {
			b.Fatal(err)
		}
	}
}
