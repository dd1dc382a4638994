package exp

import (
	"fmt"
	"strings"
	"testing"

	"tpsta/internal/core"
	"tpsta/internal/tech"
)

var quick = Config{Quick: true}

func TestTable1(t *testing.T) {
	rows, tb := Table1()
	if len(rows) != 12 {
		t.Fatalf("AO22 vectors = %d, want 12 (paper Table 1)", len(rows))
	}
	perPin := map[string]int{}
	for _, r := range rows {
		perPin[r.Pin]++
	}
	for _, pin := range []string{"A", "B", "C", "D"} {
		if perPin[pin] != 3 {
			t.Errorf("pin %s: %d vectors, want 3", pin, perPin[pin])
		}
	}
	if !strings.Contains(tb.String(), "B=1,C=0,D=0") {
		t.Error("table missing the Case 1 vector")
	}
}

func TestTable2(t *testing.T) {
	rows, _ := Table2()
	// OA12: A(1) + B(1) + C(3) = 5 rows, as in paper Table 2.
	if len(rows) != 5 {
		t.Fatalf("OA12 vectors = %d, want 5", len(rows))
	}
	cCases := 0
	for _, r := range rows {
		if r.Pin == "C" {
			cCases++
		}
	}
	if cCases != 3 {
		t.Errorf("input C: %d vectors, want 3", cCases)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// 3 techs × 2 edges.
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if len(r.Delays) != 3 {
			t.Fatalf("%s %v: %d cases", r.Tech, r.InputRise, len(r.Delays))
		}
		if !r.InputRise {
			// The paper's headline: falling-input delay depends strongly on
			// the vector — Case 1 fastest, Case 2 slowest.
			if !(r.Delays[0] < r.Delays[2] && r.Delays[2] < r.Delays[1]) {
				t.Errorf("%s fall ordering violated: %v", r.Tech, r.Delays)
			}
			if r.DiffPct[1] < 0.05 {
				t.Errorf("%s fall Case-2 delta %.1f%% too small", r.Tech, r.DiffPct[1]*100)
			}
		}
	}
	if !strings.Contains(tb.String(), "In Fall") {
		t.Error("table missing edge labels")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, _, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.InputRise {
			// Paper Table 4: rising-input Case 1 slowest, Case 3 fastest.
			if !(r.Delays[2] < r.Delays[0] && r.Delays[1] < r.Delays[0]) {
				t.Errorf("%s rise ordering violated: %v", r.Tech, r.Delays)
			}
		}
	}
}

func TestFig23(t *testing.T) {
	txt, err := Fig23()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2", "Figure 3", "OFF→ON", "AO22", "OA12"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Fig23 output missing %q", want)
		}
	}
}

func TestTable5(t *testing.T) {
	rows, tb, err := Table5(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("%d rows, want >= 2", len(rows))
	}
	// Rows sorted by spice delay descending: the slowest (hard) vector
	// first, and it must NOT be the one the baseline reports; the easy
	// vector must be reported by the baseline.
	if rows[0].ReportedByBaseline {
		t.Error("commercial tool should miss the worst vector")
	}
	foundEasy := false
	for _, r := range rows {
		if r.ReportedByBaseline {
			foundEasy = true
			if r.SpiceDelay >= rows[0].SpiceDelay {
				t.Error("reported vector should be faster than the worst one")
			}
		}
		if r.ModelDelay <= 0 || r.SpiceDelay <= 0 {
			t.Errorf("non-positive delays: %+v", r)
		}
		// Polynomial model tracks spice within 20% on this 4-gate path.
		if e := relErr(r.ModelDelay, r.SpiceDelay); e > 0.20 {
			t.Errorf("model error %.1f%% vs spice for %s", e*100, r.Vector)
		}
	}
	if !foundEasy {
		t.Error("baseline reported vector not found among variants")
	}
	// The worst/easy delta lands in a plausible band around the paper's 7%.
	var easy float64
	for _, r := range rows {
		if r.ReportedByBaseline {
			easy = r.SpiceDelay
		}
	}
	delta := (rows[0].SpiceDelay - easy) / easy
	if delta < 0.01 || delta > 0.20 {
		t.Errorf("hard-vs-easy delta %.1f%% outside plausible band", delta*100)
	}
	if !strings.Contains(tb.String(), "commercial reports") {
		t.Error("table header missing")
	}
}

func TestTable6Quick(t *testing.T) {
	rows, tb, err := Table6(quick, DefaultTable6Specs(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Circuit == "c17" {
			if r.Vectors != 11 || r.MultiPaths != 0 {
				t.Errorf("c17: vectors=%d multi=%d", r.Vectors, r.MultiPaths)
			}
			if r.TruePaths != 11 || r.DeclaredFalse != 0 {
				t.Errorf("c17 baseline: %+v", r)
			}
		} else {
			if r.Vectors == 0 {
				t.Errorf("%s: no vectors found", r.Circuit)
			}
			if r.MultiPaths == 0 {
				t.Errorf("%s: no multi-vector paths", r.Circuit)
			}
			// The headline claims: the developed tool must not label a
			// true course false, and the baseline mislabels some.
			if r.WorstPredTotal > 0 && r.WorstPredRatio > 0.95 {
				t.Errorf("%s: baseline predicts worst vector too well (%.0f%%)", r.Circuit, r.WorstPredRatio*100)
			}
		}
		if r.Paths < r.TruePaths+r.DeclaredFalse+r.Abandoned {
			t.Errorf("%s: verdict counts exceed paths", r.Circuit)
		}
		// The stop reason agrees with the truncation flag, and dropped
		// completions are a justify-budget truncation at least.
		if r.DevTruncated != (r.Truncation != core.TruncNone) {
			t.Errorf("%s: DevTruncated %v with truncation %v", r.Circuit, r.DevTruncated, r.Truncation)
		}
		if r.JustifyAborts > 0 && r.Truncation < core.TruncJustifyBudget {
			t.Errorf("%s: %d justification aborts with truncation %v", r.Circuit, r.JustifyAborts, r.Truncation)
		}
		if cell := fmt.Sprintf("%s, %d aborts", r.Truncation, r.JustifyAborts); !strings.Contains(tb.String(), cell) {
			t.Errorf("%s: trunc column lacks %q", r.Circuit, cell)
		}
	}
	if !strings.Contains(tb.String(), "false ratio") {
		t.Error("table rendering")
	}
}

func TestTableAccuracyQuick(t *testing.T) {
	rows, tb, err := TableAccuracy(Config{Quick: true, Circuits: []string{"c17"}}, "130nm")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.PathsMeasured == 0 {
		t.Fatal("no paths measured")
	}
	// The polynomial model must beat the LUT baseline on mean path error
	// (the paper's Tables 7–9 core claim) and stay in a sane band.
	if r.DevMeanPath >= r.ComMeanPath {
		t.Errorf("developed mean path error %.2f%% should beat commercial %.2f%%",
			r.DevMeanPath*100, r.ComMeanPath*100)
	}
	if r.DevMeanPath > 0.15 {
		t.Errorf("developed mean path error %.1f%% too large", r.DevMeanPath*100)
	}
	if r.DevMaxPath < r.DevMeanPath || r.ComMaxGate < r.ComMeanGate {
		t.Error("max errors below means")
	}
	if !strings.Contains(tb.String(), "130nm") {
		t.Error("table title")
	}
}

func TestLibraryCache(t *testing.T) {
	tc, err := tech.ByName("130nm")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := Library(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Library(tc, true)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("library not cached")
	}
	InjectLibrary(l1, false)
	l3, err := Library(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if l3 != l1 {
		t.Error("InjectLibrary not honored")
	}
}
