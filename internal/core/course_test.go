package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tpsta/internal/cell"
	"tpsta/internal/charlib"
	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
	"tpsta/internal/num"
	"tpsta/internal/sim"
)

func TestEnumerateCourseFig4(t *testing.T) {
	e := structEngine(t, "fig4")
	res, err := e.EnumerateCourse(circuits.Fig4CriticalPath())
	if err != nil {
		t.Fatal(err)
	}
	// The critical course has exactly the two Table 5 variants (Case 3 of
	// the AO22 conflicts with n12's side requirement).
	if len(res.Paths) != 2 {
		t.Fatalf("critical course variants = %d, want 2", len(res.Paths))
	}
	cases := map[int]bool{}
	for _, p := range res.Paths {
		for _, a := range p.Arcs {
			if a.Gate.Cell.Name == "AO22" {
				cases[a.Vec.Case] = true
			}
		}
		if p.CourseKey() != "N1→n10→n11→n12→N20" {
			t.Errorf("wrong course: %s", p.CourseKey())
		}
	}
	if !cases[1] || !cases[2] || cases[3] {
		t.Errorf("AO22 cases found: %v, want exactly {1,2}", cases)
	}
}

func TestEnumerateCourseErrors(t *testing.T) {
	e := structEngine(t, "fig4")
	for _, bad := range [][]string{
		{"N1"},                              // too short
		{"n10", "n11"},                      // not starting at an input
		{"N1", "n11"},                       // non-adjacent hop
		{"N1", "nope"},                      // unknown node
		{"N1", "n10", "n11", "n12"},         // not ending at an output
		{"N2", "n9", "n11", "n12", "ghost"}, // unknown tail
	} {
		if _, err := e.EnumerateCourse(bad); err == nil {
			t.Errorf("course %v should fail", bad)
		}
	}
}

// courseVariants returns the variants among paths that run the course
// EnumerateCourse resolves from nodes — every pin-level course with
// that node sequence — keyed by pathID.
func courseVariants(paths []*TruePath, nodes []string) map[string]*TruePath {
	out := map[string]*TruePath{}
	for _, p := range paths {
		if reflect.DeepEqual(p.Nodes, nodes) {
			out[pathID(p)] = p
		}
	}
	return out
}

// assertCourseVariants requires a course search to return exactly want:
// the same variant set, each variant identical to the free search's
// (cube, edges and delays bit for bit).
func assertCourseVariants(t *testing.T, label string, want map[string]*TruePath, got *Result) {
	t.Helper()
	if len(got.Paths) != len(want) {
		t.Errorf("%s: %d variants, want %d", label, len(got.Paths), len(want))
	}
	for _, p := range got.Paths {
		w, ok := want[pathID(p)]
		if !ok {
			t.Errorf("%s: variant %s not found by the free search", label, pathID(p))
			continue
		}
		if !samePath(w, p) {
			t.Errorf("%s: variant %s differs: delays %g/%g, want %g/%g",
				label, pathID(p), p.RiseDelay, p.FallDelay, w.RiseDelay, w.FallDelay)
		}
	}
}

// TestEnumerateCourseMatchesGlobal is the course search's oracle: for
// every course of an untruncated Enumerate, EnumerateCourse returns
// exactly the free search's variants of that node sequence — at one
// worker, on a four-worker pool, and on a four-worker pool polling for
// hungry peers at every step, so the course's one root unit is split by
// donation — with the characterized library where it covers the
// circuit's cells. On the two-pin circuit the node course a→n→z covers
// both of its pin-level courses, through pin A and through pin B.
func TestEnumerateCourseMatchesGlobal(t *testing.T) {
	tc := t130(t)
	lib := charLib130(t)
	get := func(name string) *netlist.Circuit {
		c, err := circuits.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	gen := genCircuit(t, circuits.Profile{
		Name: "course-gen", Inputs: 6, Outputs: 3, Gates: 22, Depth: 6, Seed: 1})
	for _, tt := range []struct {
		name    string
		c       *netlist.Circuit
		lib     *charlib.Library
		courses int
	}{
		{"fig4", get("fig4"), lib, 9},
		{"c17", get("c17"), lib, 11},
		{"course", courseCircuit(t), lib, 5},
		{"generated", gen, nil, 18}, // cells outside charLib130: structure-only
		{"twopin", twoPinCircuit(t), lib, 3},
	} {
		full, err := New(tt.c, tc, tt.lib, Options{Workers: 1}).Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		if full.Truncated {
			t.Fatalf("%s: free search truncated", tt.name)
		}
		if full.Courses != tt.courses {
			t.Errorf("%s: %d courses, want %d", tt.name, full.Courses, tt.courses)
		}
		done := map[string]bool{}
		donations := int64(0)
		for _, p := range full.Paths {
			if done[p.CourseKey()] {
				continue
			}
			done[p.CourseKey()] = true
			want := courseVariants(full.Paths, p.Nodes)
			for _, opts := range []Options{{Workers: 1}, {Workers: 4}, {Workers: 4, StealPollSteps: 1}} {
				e := New(tt.c, tc, tt.lib, opts)
				got, err := e.EnumerateCourse(p.Nodes)
				if err != nil {
					t.Fatal(err)
				}
				assertCourseVariants(t, fmt.Sprintf("%s %s workers=%d poll=%d",
					tt.name, p.CourseKey(), opts.Workers, opts.StealPollSteps), want, got)
				if opts.StealPollSteps == 1 {
					donations += e.ParallelStats().Donations
				}
			}
		}
		// A course with several variants has a frame with a second
		// on-course branch, which the storm pool donates at once.
		if full.MultiVectorCourses > 0 && donations == 0 {
			t.Errorf("%s: no course search was split by donation", tt.name)
		}
	}
	res, err := New(twoPinCircuit(t), tc, nil, Options{Workers: 1}).EnumerateCourse([]string{"a", "n", "z"})
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]bool{}
	for _, p := range res.Paths {
		pins[p.Arcs[0].Pin] = true
	}
	if len(res.Paths) != 2 || !pins["A"] || !pins["B"] {
		t.Errorf("two-pin course a→n→z: %d variants entering n on %v, want both pins A and B", len(res.Paths), pins)
	}
}

// TestPerEdgeJustification builds the XOR-reconvergence situation where
// one input cube cannot serve both launch edges: z = AND2(chain(a), p),
// with p = XOR2(a, s). The side input p must settle at 1; whether s must
// be 0 or 1 depends on where a ENDS — so the rising and falling launches
// need opposite cubes, and the engine must report both.
func TestPerEdgeJustification(t *testing.T) {
	lib := cell.Default()
	c := netlist.New("peredge")
	for _, in := range []string{"a", "s"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(cellName, out string, pins map[string]string) {
		if _, err := c.AddGate(lib, cellName, out, pins); err != nil {
			t.Fatal(err)
		}
	}
	mk("BUF", "b1", map[string]string{"A": "a"})
	mk("XOR2", "p", map[string]string{"A": "a", "B": "s"})
	mk("AND2", "z", map[string]string{"A": "b1", "B": "p"})
	c.MarkOutput("z")
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	e := New(c, t130(t), nil, Options{})
	res, err := e.EnumerateCourse([]string{"a", "b1", "z"})
	if err != nil {
		t.Fatal(err)
	}
	var riseOnly, fallOnly int
	for _, p := range res.Paths {
		if p.RiseOK && p.FallOK {
			t.Errorf("variant %v claims both edges with one cube", p.Cube)
		}
		if p.RiseOK {
			riseOnly++
			// Rising a ends at 1; p = XOR(a,s) must end 1 ⇒ s ends 0.
			if p.Cube["s"].String() != "0" {
				t.Errorf("rise cube s=%v, want 0", p.Cube["s"])
			}
		}
		if p.FallOK {
			fallOnly++
			if p.Cube["s"].String() != "1" {
				t.Errorf("fall cube s=%v, want 1", p.Cube["s"])
			}
		}
	}
	if riseOnly != 1 || fallOnly != 1 {
		t.Fatalf("got %d rise-only and %d fall-only variants, want 1 and 1", riseOnly, fallOnly)
	}
	// Both verify independently.
	for _, p := range res.Paths {
		if err := sim.Verify(c, p.Nodes, p.Start, p.RiseOK, p.Cube); err != nil {
			t.Errorf("verify: %v", err)
		}
	}
}

func TestArcDelaysSumToPathDelay(t *testing.T) {
	cNet, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	lib := charLib130(t)
	e := New(cNet, t130(t), lib, Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Paths {
		if !p.FallOK {
			continue
		}
		ds, err := e.ArcDelays(p.Arcs, false)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, d := range ds {
			if d <= 0 {
				t.Errorf("non-positive arc delay in %s", p)
			}
			total += d
		}
		if diff := total - p.FallDelay; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("arc delays sum %g != path delay %g", total, p.FallDelay)
		}
	}
}

func TestStructureOnlyArcDelaysAreUnit(t *testing.T) {
	e := structEngine(t, "c17")
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	ds, err := e.ArcDelays(p.Arcs, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if !num.Eq(d, 1) {
			t.Errorf("unit delay expected, got %v", d)
		}
	}
	if !num.Eq(p.WorstDelay(), float64(len(p.Arcs))) {
		t.Errorf("structure-only worst delay %v for %d arcs", p.WorstDelay(), len(p.Arcs))
	}
}

func TestWritePathReport(t *testing.T) {
	cNet, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	lib := charLib130(t)
	e := New(cNet, t130(t), lib, Options{})
	res, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Paths[0]
	var buf strings.Builder
	rising := p.RiseOK
	if err := e.WritePathReport(&buf, p, rising); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Path:", "incr(ps)", "arrive(ps)", "data arrival time", "input cube:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Every arc appears, and the arrival total matches the path delay.
	for _, a := range p.Arcs {
		if !strings.Contains(out, a.Gate.Cell.Name) {
			t.Errorf("missing cell %s", a.Gate.Cell.Name)
		}
	}
	// Wrong edge rejected.
	if p.RiseOK != p.FallOK {
		if err := e.WritePathReport(&buf, p, !rising); err == nil {
			t.Error("wrong edge accepted")
		}
	}
}

func TestWriteDotHighlight(t *testing.T) {
	cNet, err := circuits.Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := netlist.WriteDot(&buf, cNet, circuits.Fig4CriticalPath()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "color=red") {
		t.Errorf("dot output:\n%s", out)
	}
	if !strings.Contains(out, "AO22") {
		t.Error("cell labels missing")
	}
}

// TestRobustSubsetOfFloating: robust-mode paths are a subset of the
// floating-mode set, and on fig4 specifically the robust set is strictly
// smaller (the default OR2 side of n15 settles but is not steady under
// some cubes).
func TestRobustModeSubset(t *testing.T) {
	cir, err := circuits.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxSteps: 20000}
	floating, err := New(cir, t130(t), nil, opts).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	opts.Robust = true
	robust, err := New(cir, t130(t), nil, opts).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(robust.Paths) > len(floating.Paths) {
		t.Errorf("robust found more paths (%d) than floating (%d)", len(robust.Paths), len(floating.Paths))
	}
	if len(robust.Paths) == 0 {
		t.Error("robust mode found nothing at all")
	}
	// Every robust path's (course, vectors) combination appears in the
	// floating set too (budgets equal, search order identical, and a
	// steady requirement only restricts the constraint store).
	seen := map[string]bool{}
	for _, p := range floating.Paths {
		seen[p.String()] = true
	}
	missing := 0
	for _, p := range robust.Paths {
		if !seen[p.String()] {
			missing++
		}
	}
	// Budget truncation can make the sets drift at the margin; the bulk
	// must be contained.
	if missing > len(robust.Paths)/10 {
		t.Errorf("%d of %d robust paths missing from the floating set", missing, len(robust.Paths))
	}
}

// TestPropertyRandomCircuitsEnginesAgree fuzzes small random circuits:
// every enumerated path verifies under the independent checker, KWorst
// results are a subset of the full enumeration, and the directed course
// mode confirms every reported course.
func TestPropertyRandomCircuitsEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1); seed <= 8; seed++ {
		gen, err := circuits.Generate(circuits.Profile{
			Name: "fuzz", Inputs: 6, Outputs: 3, Gates: 22, Depth: 5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := New(gen, t130(t), nil, Options{MaxVariants: 3000})
		res, err := e.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, p := range res.Paths {
			keys[p.String()] = true
			if p.RiseOK {
				if err := sim.Verify(gen, p.Nodes, p.Start, true, p.Cube); err != nil {
					t.Errorf("seed %d: rise verify %s: %v", seed, p, err)
				}
			}
			if p.FallOK {
				if err := sim.Verify(gen, p.Nodes, p.Start, false, p.Cube); err != nil {
					t.Errorf("seed %d: fall verify %s: %v", seed, p, err)
				}
			}
		}
		if res.Truncated {
			continue // subset relations below assume complete enumeration
		}
		k, err := New(gen, t130(t), nil, Options{}).KWorst(5)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range k.Paths {
			if !keys[p.String()] {
				t.Errorf("seed %d: KWorst path %s not in enumeration", seed, p)
			}
		}
		// Directed course mode reconfirms a sample of courses.
		checked := 0
		for _, p := range res.Paths {
			if checked >= 5 {
				break
			}
			cres, err := e.EnumerateCourse(p.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			if len(cres.Paths) == 0 {
				t.Errorf("seed %d: course %s not reconfirmed", seed, p.CourseKey())
			}
			checked++
		}
	}
}
