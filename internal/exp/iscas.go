package exp

import (
	"fmt"
	"time"

	"tpsta/internal/baseline"
	"tpsta/internal/circuits"
	"tpsta/internal/core"
	"tpsta/internal/report"
	"tpsta/internal/tech"
)

// Table6Spec names one row of Table 6: a circuit and the backtrack limit
// given to the emulated commercial tool.
type Table6Spec struct {
	Circuit        string
	BacktrackLimit int
}

// DefaultTable6Specs mirrors the paper's Table 6 rows: every ISCAS
// circuit at limit 1000, plus the limit sweeps on c6288 and c7552.
func DefaultTable6Specs(quick bool) []Table6Spec {
	if quick {
		return []Table6Spec{
			{"c17", 1000}, {"c432", 1000}, {"c880", 1000},
		}
	}
	var specs []Table6Spec
	for _, name := range circuits.ISCASNames() {
		specs = append(specs, Table6Spec{name, 1000})
	}
	specs = append(specs,
		Table6Spec{"c6288", 5000},
		Table6Spec{"c6288", 10000},
		Table6Spec{"c6288", 25000},
		Table6Spec{"c7552", 5000},
	)
	return specs
}

// Table6Row is one measured row of the critical-path identification
// comparison (paper Table 6).
type Table6Row struct {
	Circuit string

	// Developed tool.
	Vectors      int     // recorded true-path variants ("input vectors")
	MultiPaths   int     // courses with more than one variant
	DevCPU       float64 // seconds
	DevTruncated bool
	// Truncation is the strongest cap that stopped the developed tool
	// (core.TruncNone when DevTruncated is false); JustifyAborts counts
	// the completed paths it dropped at the justification budget.
	Truncation    core.TruncReason
	JustifyAborts int64

	// Emulated commercial tool.
	BacktrackLimit int
	BaseCPU        float64
	Paths          int // structural paths examined
	TruePaths      int
	MisFalse       int // declared false although the developed tool proved the course true
	DeclaredFalse  int
	Abandoned      int
	FalseRatio     float64 // (declared false + abandoned) / paths
	WorstPredRatio float64 // multi-vector courses where the default vector is the worst one
	WorstPredTotal int     // denominator of WorstPredRatio
}

// devRun caches one developed-tool enumeration per circuit.
type devRun struct {
	res *core.Result
	cpu float64
	eng *core.Engine
}

// Table6 runs both tools over the given specs. All rows use the 130 nm
// library (the paper presents Table 6 as technology-independent).
func Table6(cfg Config, specs []Table6Spec) ([]Table6Row, *report.Table, error) {
	tc, err := tech.ByName("130nm")
	if err != nil {
		return nil, nil, err
	}
	lib, err := Library(tc, cfg.Quick)
	if err != nil {
		return nil, nil, err
	}

	devRuns := map[string]*devRun{}
	developed := func(name string) (*devRun, error) {
		if r, ok := devRuns[name]; ok {
			return r, nil
		}
		cir, err := circuits.Get(name)
		if err != nil {
			return nil, err
		}
		eng := core.New(cir, tc, lib, core.Options{MaxSteps: cfg.maxSteps(), MaxVariants: 50_000})
		start := time.Now()
		res, err := eng.Enumerate()
		if err != nil {
			return nil, err
		}
		r := &devRun{res: res, cpu: time.Since(start).Seconds(), eng: eng}
		devRuns[name] = r
		return r, nil
	}

	var rows []Table6Row
	for _, spec := range specs {
		dev, err := developed(spec.Circuit)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: table 6 %s: %w", spec.Circuit, err)
		}
		cir, err := circuits.Get(spec.Circuit)
		if err != nil {
			return nil, nil, err
		}
		tool := baseline.New(cir, tc, lib, baseline.Options{BacktrackLimit: spec.BacktrackLimit})
		start := time.Now()
		rep, err := tool.Run(cfg.numPaths())
		if err != nil {
			return nil, nil, fmt.Errorf("exp: table 6 baseline %s: %w", spec.Circuit, err)
		}
		baseCPU := time.Since(start).Seconds()

		row := Table6Row{
			Circuit:        spec.Circuit,
			Vectors:        len(dev.res.Paths),
			MultiPaths:     dev.res.MultiVectorCourses,
			DevCPU:         dev.cpu,
			DevTruncated:   dev.res.Truncated,
			Truncation:     dev.res.Truncation,
			JustifyAborts:  dev.res.JustificationAborts,
			BacktrackLimit: spec.BacktrackLimit,
			BaseCPU:        baseCPU,
			Paths:          len(rep.Outcomes),
			TruePaths:      rep.True,
			DeclaredFalse:  rep.False,
			Abandoned:      rep.Abandoned,
		}
		// Adjudicate the baseline's verdicts with the developed tool
		// pointed at each of the baseline's own paths: a declared-false
		// path with a true variant is a misidentification; a true path
		// with several variants tests whether the baseline's default
		// vector really is the worst one. Adjudication effort is bounded
		// per course and not billed to either tool's CPU column.
		correct := 0
		for _, o := range rep.Outcomes {
			opts := core.Options{MaxSteps: 1500}
			if o.Verdict == baseline.VerdictFalse {
				// Any single variant disproves the verdict — no need to
				// enumerate the rest.
				opts.MaxVariants = 1
			} else {
				// Bound the vector exploration of very long true courses.
				opts.MaxVariants = 64
			}
			adjEng := core.New(dev.eng.Circuit, tc, lib, opts)
			cres, err := adjEng.EnumerateCourse(o.Nodes)
			if err != nil {
				return nil, nil, fmt.Errorf("exp: adjudicating %s: %w", spec.Circuit, err)
			}
			switch o.Verdict {
			case baseline.VerdictFalse:
				if len(cres.Paths) > 0 {
					row.MisFalse++
				}
			case baseline.VerdictAbandoned:
				// The baseline gave up before a verdict; there is no
				// prediction to adjudicate.
			case baseline.VerdictTrue:
				if len(cres.Paths) < 2 {
					continue
				}
				row.WorstPredTotal++
				worst := cres.Paths[0] // sorted worst-first
				if allDefaultVectors(worst) {
					correct++
				}
			}
		}
		if row.Paths > 0 {
			row.FalseRatio = float64(row.DeclaredFalse+row.Abandoned) / float64(row.Paths)
		}
		if row.WorstPredTotal > 0 {
			row.WorstPredRatio = float64(correct) / float64(row.WorstPredTotal)
		}
		rows = append(rows, row)
	}

	tb := report.New("Table 6: critical path identification, developed vs commercial tool",
		"circuit", "vectors", "multi-paths", "dev CPU(s)", "trunc",
		"bt-limit", "base CPU(s)", "#paths", "#true", "#mis-false", "#abandoned",
		"false ratio", "worst-pred")
	for _, r := range rows {
		tb.Row(r.Circuit, r.Vectors, r.MultiPaths, fmt.Sprintf("%.2f", r.DevCPU),
			fmt.Sprintf("%s, %d aborts", r.Truncation, r.JustifyAborts),
			r.BacktrackLimit, fmt.Sprintf("%.2f", r.BaseCPU), r.Paths, r.TruePaths, r.MisFalse,
			r.Abandoned, report.Pct(r.FalseRatio), report.Pct(r.WorstPredRatio))
	}
	tb.Note("vectors/multi-paths: developed tool variants and multi-vector courses (search budget %d steps)", cfg.maxSteps())
	tb.Note("trunc: the strongest cap that stopped the developed tool (none, justify-budget, max-variants, max-steps) and the completed paths it dropped at the justification budget")
	tb.Note("worst-pred: share of multi-vector courses whose worst variant is the commercial tool's default vector (paper mean ≈ 40%%)")
	return rows, tb, nil
}

// allDefaultVectors reports whether every arc of the variant uses Case 1.
func allDefaultVectors(p *core.TruePath) bool {
	for _, a := range p.Arcs {
		if a.Vec.Case != 1 {
			return false
		}
	}
	return true
}
