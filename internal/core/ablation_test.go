package core

import (
	"testing"

	"tpsta/internal/circuits"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Run
// with `go test -bench=Ablation ./internal/core/`.

// BenchmarkAblationJustifyBudget_* measure the cost/recall trade of the
// per-path justification budget.
func BenchmarkAblationJustifyBudget_500(b *testing.B) {
	benchEnumerate(b, Options{MaxSteps: 20000, JustifyBudget: 500})
}

func BenchmarkAblationJustifyBudget_20000(b *testing.B) {
	benchEnumerate(b, Options{MaxSteps: 20000, JustifyBudget: 20000})
}

func benchEnumerate(b *testing.B, opts Options) {
	b.Helper()
	cir, err := circuits.Get("c432")
	if err != nil {
		b.Fatal(err)
	}
	tc := t130(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(cir, tc, nil, opts)
		res, err := e.Enumerate()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Paths)), "paths")
		b.ReportMetric(float64(res.JustificationAborts), "aborts")
	}
}

// BenchmarkAblationKWorst_Pruned/Unpruned measure the branch-and-bound
// pruning of the K-worst mode against exhaustive enumeration + sort.
func BenchmarkAblationKWorst_Pruned(b *testing.B) {
	cir, err := circuits.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	tc := t130(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(cir, tc, nil, Options{})
		if _, err := e.KWorst(3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKWorst_Unpruned(b *testing.B) {
	cir, err := circuits.Get("fig4")
	if err != nil {
		b.Fatal(err)
	}
	tc := t130(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(cir, tc, nil, Options{})
		res, err := e.Enumerate()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Paths) < 3 {
			b.Fatal("too few paths")
		}
	}
}
