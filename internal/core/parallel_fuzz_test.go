package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"tpsta/internal/circuits"
	"tpsta/internal/netlist"
)

// fuzzMaxGates bounds the circuits FuzzParallelDeterminism searches:
// an uncapped exhaustive enumeration is exponential in depth, and small
// netlists already reach every scheduler path (stealing, donation,
// replay) on a four-worker pool.
const fuzzMaxGates = 32

// sameOutcome requires two searches to agree: both fail with the same
// message, or both succeed with identical results.
func sameOutcome(t *testing.T, label string, want, got *Result, wantErr, gotErr error, strictStats bool) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("%s: error %v, serial %v", label, gotErr, wantErr)
		}
		return
	}
	assertSameResult(t, label, want, got, strictStats)
}

// FuzzParallelDeterminism is the runtime guard of the determinism
// contract: an untruncated search returns the same result at any
// worker count. Each input is parsed as structural Verilog; accepted
// netlists up to fuzzMaxGates gates run a structure-only Enumerate and
// KWorst(3) with no caps at Workers 1 and 4, and the pool must
// reproduce the serial result — enumeration counters included, which
// the merge makes worker-count invariant. The budget contract rides
// along: Enumerate with MaxSteps one above the unbudgeted step count
// must finish untruncated with the same result, at Workers 1 and 4.
// So does the course contract: EnumerateCourse on the serial
// enumeration's worst course must return exactly that course's
// variants, at Workers 1 and 4.
//
// Seeds: FuzzVerilog's — the repository's mini.v sample, fig4 and c17
// routed through the writer, and the inline snippets — plus the two-pin
// circuit, whose paths differ only in an entry pin.
func FuzzParallelDeterminism(f *testing.F) {
	if src, err := os.ReadFile("../../testdata/mini.v"); err == nil {
		f.Add(string(src))
	}
	for _, name := range []string{"fig4", "c17"} {
		c, err := circuits.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := netlist.WriteVerilog(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("module m (a, z); input a; output z; INV u1 (.A(a), .Z(z)); endmodule")
	f.Add("module m (a, b, z);\n input a, b;\n output z;\n wire n;\n NAND2 g (.A(a), .B(b), .Z(n));\n INV i (.A(n), .Z(z));\nendmodule\n")
	f.Add("module broken (")
	f.Add(twoPinVerilog)
	tc := t130(f)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := netlist.ParseVerilog("fuzz", strings.NewReader(src))
		if err != nil || len(c.Gates) > fuzzMaxGates {
			return
		}
		serialE, serialErr := New(c, tc, nil, Options{Workers: 1}).Enumerate()
		parE, parErr := New(c, tc, nil, Options{Workers: 4}).Enumerate()
		sameOutcome(t, "enumerate", serialE, parE, serialErr, parErr, true)
		if serialErr == nil {
			for _, w := range []int{1, 4} {
				res, err := New(c, tc, nil, Options{Workers: w, MaxSteps: serialE.Steps + 1}).Enumerate()
				sameOutcome(t, fmt.Sprintf("enumerate budget+1 workers=%d", w), serialE, res, nil, err, true)
			}
		}
		if serialErr == nil && len(serialE.Paths) > 0 {
			worst := serialE.Paths[0].Nodes
			want := courseVariants(serialE.Paths, worst)
			for _, w := range []int{1, 4} {
				res, err := New(c, tc, nil, Options{Workers: w}).EnumerateCourse(worst)
				if err != nil {
					t.Fatalf("course %v workers=%d: %v", worst, w, err)
				}
				assertCourseVariants(t, fmt.Sprintf("course workers=%d", w), want, res)
			}
		}
		serialK, serialErr := New(c, tc, nil, Options{Workers: 1}).KWorst(3)
		parK, parErr := New(c, tc, nil, Options{Workers: 4}).KWorst(3)
		sameOutcome(t, "kworst", serialK, parK, serialErr, parErr, false)
	})
}
