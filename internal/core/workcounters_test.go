package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
)

var update = flag.Bool("update", false, "regenerate golden files")

// workCounters is one search's one-worker work: the SearchStats
// counters that repeat exactly from run to run.
type workCounters struct {
	Steps      int64 `json:"steps"`
	Conflicts  int64 `json:"conflicts"`
	Backtracks int64 `json:"backtracks"`
	Aborts     int64 `json:"aborts"`
	Recorded   int64 `json:"recorded"`
	Deduped    int64 `json:"deduped"`
}

// TestSearchWorkCounters pins the search's work: structure-only
// Enumerate under the Table 6 caps and KWorst(10) at one worker, on
// c432, c880 and c1908, and KWorst(10) on the c6288 product-bit-6 cone.
// A change that claims to move only the cost of a step must leave
// testdata/work_counters.json as it is. Regenerate with: go test
// ./internal/core -run TestSearchWorkCounters -update
func TestSearchWorkCounters(t *testing.T) {
	goldenPath := filepath.Join("testdata", "work_counters.json")
	type search struct {
		name, circuit, cone string
		enumerate           bool
		slow                bool // skipped under -race
	}
	var searches []search
	for _, c := range []string{"c432", "c880", "c1908"} {
		searches = append(searches, search{name: "enumerate/" + c, circuit: c, enumerate: true, slow: c == "c1908"})
	}
	for _, c := range []string{"c432", "c880", "c1908"} {
		searches = append(searches, search{name: "kworst/" + c, circuit: c, slow: c == "c1908"})
	}
	searches = append(searches, search{name: "kworst/c6288-s81", circuit: "c6288", cone: "s81", slow: true})

	got := map[string]workCounters{}
	for _, sc := range searches {
		if sc.slow && raceEnabled && !*update {
			continue
		}
		c, err := circuits.Get(sc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		if sc.cone != "" {
			if c, err = netlist.ExtractCone(c, cell.Default(), []string{sc.cone}); err != nil {
				t.Fatal(err)
			}
		}
		// The Table 6 caps; every search here finishes under them.
		e := New(c, t130(t), nil, Options{Workers: 1, MaxSteps: 600_000, MaxVariants: 50_000})
		if sc.enumerate {
			_, err = e.Enumerate()
		} else {
			_, err = e.KWorst(10)
		}
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		st := e.Stats()
		if st.Truncation != TruncNone {
			t.Fatalf("%s: truncated (%s)", sc.name, st.Truncation)
		}
		got[sc.name] = workCounters{
			Steps: st.SensitizationAttempts, Conflicts: st.Conflicts, Backtracks: st.Backtracks,
			Aborts: st.JustificationAborts, Recorded: st.PathsRecorded, Deduped: st.PathsDeduped,
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]workCounters
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	for _, sc := range searches {
		g, ran := got[sc.name]
		if !ran {
			continue
		}
		if w, ok := want[sc.name]; !ok {
			t.Errorf("%s: no golden entry (regenerate with -update)", sc.name)
		} else if g != w {
			t.Errorf("%s: work %+v, golden %+v", sc.name, g, w)
		}
	}
}

// fullLibCache is the quick-grid 130 nm library over every cell of
// the default library, characterized once per test binary.
var fullLibCache *charlib.Library

func fullLib130(t testing.TB) *charlib.Library {
	t.Helper()
	if fullLibCache != nil {
		return fullLibCache
	}
	lib, err := charlib.Characterize(t130(t), cell.Default(), charlib.TestGrid(), charlib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullLibCache = lib
	return lib
}

// libraryWork is one library-backed K-worst search's one-worker work,
// its worst delay and its kernel layer: what the delay-driven pruning
// decides, and what it decides it on.
type libraryWork struct {
	Steps      int64  `json:"steps"`
	Conflicts  int64  `json:"conflicts"`
	Backtracks int64  `json:"backtracks"`
	WorstBits  uint64 `json:"worstDelayBits"`
	Kernels    struct {
		Arcs        int `json:"arcs"`
		Terms       int `json:"terms"`
		PoolKernels int `json:"poolKernels"`
		PoolTerms   int `json:"poolTerms"`
		PoolOps     int `json:"poolOps"`
	} `json:"kernels"`
}

// TestKWorstLibraryWork pins the delay-driven K-worst search, which
// TestSearchWorkCounters (structure-only) does not reach: one-worker
// KWorst(10) with the quick-grid 130 nm library on c432, c880, c1908
// and the c6288 s81 cone. The branch-and-bound prunes on exact arc
// delays, so its steps, conflicts and backtracks move with any change
// to a delay or a bound, as does the worst delay's bit pattern; the
// kernel-layer sizes pin the compiled pool. A change that claims to
// keep every delay bit-identical must leave
// testdata/kworst_library.json as it is. Regenerate with: go test
// ./internal/core -run TestKWorstLibraryWork -update
//
// Every entry needs the library of (nearly) every cell, whose
// characterization takes about 20 s under the race detector, so the
// test skips itself there.
func TestKWorstLibraryWork(t *testing.T) {
	if raceEnabled && !*update {
		t.Skip("full-library characterization is too slow under -race")
	}
	goldenPath := filepath.Join("testdata", "kworst_library.json")
	searches := []struct{ name, circuit, cone string }{
		{"c432", "c432", ""},
		{"c880", "c880", ""},
		{"c1908", "c1908", ""},
		{"c6288-s81", "c6288", "s81"},
	}
	got := map[string]libraryWork{}
	for _, sc := range searches {
		c, err := circuits.Get(sc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		if sc.cone != "" {
			if c, err = netlist.ExtractCone(c, cell.Default(), []string{sc.cone}); err != nil {
				t.Fatal(err)
			}
		}
		e := New(c, t130(t), fullLib130(t), Options{Workers: 1})
		res, err := e.KWorst(10)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		st := e.Stats()
		if st.Truncation != TruncNone || len(res.Paths) == 0 {
			t.Fatalf("%s: truncated (%s) or empty (%d paths)", sc.name, st.Truncation, len(res.Paths))
		}
		w := libraryWork{
			Steps: st.SensitizationAttempts, Conflicts: st.Conflicts, Backtracks: st.Backtracks,
			WorstBits: math.Float64bits(res.Paths[0].WorstDelay()),
		}
		ks := e.KernelStats()
		w.Kernels.Arcs, w.Kernels.Terms = ks.Arcs, ks.Terms
		w.Kernels.PoolKernels, w.Kernels.PoolTerms, w.Kernels.PoolOps = ks.PoolKernels, ks.PoolTerms, ks.PoolOps
		got[sc.name] = w
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]libraryWork
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&want); err != nil {
		t.Fatal(err)
	}
	for _, sc := range searches {
		g, ran := got[sc.name]
		if !ran {
			continue
		}
		if w, ok := want[sc.name]; !ok {
			t.Errorf("%s: no golden entry (regenerate with -update)", sc.name)
		} else if g != w {
			t.Errorf("%s: work %+v, golden %+v", sc.name, g, w)
		}
	}
}
