package expr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"tpsta/internal/logic"
)

// ao22 is Z = A*B + C*D, the paper's first complex-gate example.
func ao22() Node {
	return OrOf(AndOf(V("A"), V("B")), AndOf(V("C"), V("D")))
}

// oa12 is Z = (A+B)*C, the paper's second example.
func oa12() Node {
	return AndOf(OrOf(V("A"), V("B")), V("C"))
}

// equivalent reports whether two expressions compute the same boolean
// function over the union of their variables.
func equivalent(a, b Node) bool {
	set := map[string]bool{}
	a.vars(set)
	b.vars(set)
	vars := make([]string, 0, len(set))
	for name := range set {
		vars = append(vars, name)
	}
	sort.Strings(vars)
	ta := TruthTable(a, vars)
	tb := TruthTable(b, vars)
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

func TestEvalAndString(t *testing.T) {
	e := ao22()
	if got := e.String(); got != "(A*B)+(C*D)" {
		t.Errorf("String = %q", got)
	}
	env := map[string]logic.Value{
		"A": logic.VR, "B": logic.V1, "C": logic.V0, "D": logic.V0,
	}
	if got := e.Eval(env); got != logic.VR {
		t.Errorf("AO22 Case 1 eval = %s, want R", got)
	}
	// Unassigned variable reads X: A=F with B unknown on the AND side.
	env2 := map[string]logic.Value{"A": logic.VF, "C": logic.V0, "D": logic.V0}
	if got := e.Eval(env2); got != logic.VX0 {
		t.Errorf("partial eval = %s, want X0", got)
	}
	if (Const{true}).String() != "1" || (Const{false}).String() != "0" {
		t.Error("Const String")
	}
	if NotOf(V("A")).String() != "!A" {
		t.Error("Not String")
	}
	if XorOf(V("A"), OrOf(V("B"), V("C"))).String() != "A^(B+C)" {
		t.Errorf("Xor String = %s", XorOf(V("A"), OrOf(V("B"), V("C"))).String())
	}
}

func TestVars(t *testing.T) {
	got := Vars(ao22())
	want := []string{"A", "B", "C", "D"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Vars = %v", got)
	}
	if len(Vars(Const{true})) != 0 {
		t.Error("const has no vars")
	}
	if got := Vars(XorOf(V("b"), NotOf(V("a")))); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Vars = %v", got)
	}
}

func TestTruthTable(t *testing.T) {
	tt := TruthTable(oa12(), []string{"A", "B", "C"})
	// Bit order: row bit 0 = A, 1 = B, 2 = C. Z = (A+B)*C.
	want := []bool{false, false, false, false, false, true, true, true}
	if !reflect.DeepEqual(tt, want) {
		t.Errorf("truth table = %v", tt)
	}
}

func TestDual(t *testing.T) {
	// dual(AB + CD) = (A+B)(C+D)
	d := Dual(ao22())
	want := AndOf(OrOf(V("A"), V("B")), OrOf(V("C"), V("D")))
	if d.String() != want.String() {
		t.Errorf("Dual = %s", d.String())
	}
	// dual(dual(e)) ≡ e structurally for series/parallel trees.
	if Dual(d).String() != ao22().String() {
		t.Errorf("double dual = %s", Dual(d).String())
	}
	// Complement property: dual(f)(x) == !f(!x) for all assignments.
	vars := Vars(ao22())
	f := TruthTable(ao22(), vars)
	g := TruthTable(d, vars)
	n := len(vars)
	for r := range f {
		comp := (1<<n - 1) ^ r // bitwise complement of the assignment
		if g[r] != !f[comp] {
			t.Fatalf("dual complement property fails at row %d", r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Dual of Not should panic")
		}
	}()
	Dual(NotOf(V("A")))
}

func TestCofactorAndBooleanDifference(t *testing.T) {
	e := oa12()
	c0 := Cofactor(e, "C", false)
	vars := []string{"A", "B"}
	for _, row := range TruthTable(c0, vars) {
		if row {
			t.Fatal("(A+B)*0 should be constant 0")
		}
	}
	c1 := Cofactor(e, "C", true)
	if !equivalent(c1, OrOf(V("A"), V("B"))) {
		t.Error("(A+B)*1 should equal A+B")
	}
	// ∂Z/∂C = (A+B): any side assignment with A+B=1 sensitizes C.
	diff := BooleanDifference(e, "C")
	if !equivalent(diff, OrOf(V("A"), V("B"))) {
		t.Errorf("boolean difference = %s", diff.String())
	}
}

func TestSensitizingAssignmentsOA12(t *testing.T) {
	// Paper Table 2: input C of OA12 has exactly 3 sensitization vectors
	// (A,B) ∈ {(1,0),(0,1),(1,1)}; inputs A and B have exactly 1 each.
	got := SensitizingAssignments(oa12(), "C")
	if len(got) != 3 {
		t.Fatalf("OA12 input C: %d vectors, want 3", len(got))
	}
	seen := map[[2]bool]bool{}
	for _, env := range got {
		seen[[2]bool{env["A"], env["B"]}] = true
	}
	for _, want := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		if !seen[want] {
			t.Errorf("missing vector A=%v B=%v", want[0], want[1])
		}
	}
	if n := len(SensitizingAssignments(oa12(), "A")); n != 1 {
		t.Errorf("OA12 input A: %d vectors, want 1", n)
	}
	if n := len(SensitizingAssignments(oa12(), "B")); n != 1 {
		t.Errorf("OA12 input B: %d vectors, want 1", n)
	}
}

func TestSensitizingAssignmentsAO22(t *testing.T) {
	// Paper Table 1: each of the four AO22 inputs has exactly 3 vectors,
	// 12 in total.
	total := 0
	for _, pin := range []string{"A", "B", "C", "D"} {
		vecs := SensitizingAssignments(ao22(), pin)
		if len(vecs) != 3 {
			t.Errorf("AO22 input %s: %d vectors, want 3", pin, len(vecs))
		}
		total += len(vecs)
	}
	if total != 12 {
		t.Errorf("AO22 total vectors = %d, want 12", total)
	}
	// Input A specifically requires B=1 and C*D=0 (Table 1 rows 1-3).
	for _, env := range SensitizingAssignments(ao22(), "A") {
		if !env["B"] {
			t.Errorf("vector %v does not set B=1", env)
		}
		if env["C"] && env["D"] {
			t.Errorf("vector %v has C*D=1, which blocks A", env)
		}
	}
}

func TestSensitizingAssignmentsEdgeCases(t *testing.T) {
	if SensitizingAssignments(ao22(), "E") != nil {
		t.Error("unknown pin should yield nil")
	}
	// An inverter: single pin, one (empty) sensitizing assignment.
	vecs := SensitizingAssignments(NotOf(V("A")), "A")
	if len(vecs) != 1 || len(vecs[0]) != 0 {
		t.Errorf("inverter vectors = %v", vecs)
	}
	// XOR2: both side values sensitize.
	if n := len(SensitizingAssignments(XorOf(V("A"), V("B")), "A")); n != 2 {
		t.Errorf("XOR2 input A: %d vectors, want 2", n)
	}
	// A redundant input never sensitizes: Z = A + A*B, pin B requires A=1
	// and A=0 simultaneously... actually ∂Z/∂B = (A) xor (A+AB)... compute:
	// Z|B=0 = A, Z|B=1 = A. Difference is constant 0.
	red := OrOf(V("A"), AndOf(V("A"), V("B")))
	if n := len(SensitizingAssignments(red, "B")); n != 0 {
		t.Errorf("redundant input has %d vectors, want 0", n)
	}
}

func TestIsUnate(t *testing.T) {
	if !IsUnate(ao22()) || !IsUnate(oa12()) || !IsUnate(Const{true}) {
		t.Error("series/parallel trees are unate")
	}
	if IsUnate(NotOf(V("A"))) || IsUnate(XorOf(V("A"), V("B"))) {
		t.Error("Not/Xor are not unate")
	}
}

func TestEquivalent(t *testing.T) {
	if !equivalent(ao22(), OrOf(AndOf(V("C"), V("D")), AndOf(V("B"), V("A")))) {
		t.Error("commuted AO22 should be equivalent")
	}
	if equivalent(ao22(), oa12()) {
		t.Error("AO22 != OA12")
	}
	// De Morgan as an equivalence over different structures.
	a := NotOf(AndOf(V("x"), V("y")))
	b := OrOf(NotOf(V("x")), NotOf(V("y")))
	if !equivalent(a, b) {
		t.Error("De Morgan equivalence")
	}
}

// randomExpr builds a random expression over up to 4 variables.
func randomExpr(r *rand.Rand, depth int) Node {
	names := []string{"A", "B", "C", "D"}
	if depth <= 0 || r.Intn(3) == 0 {
		return V(names[r.Intn(len(names))])
	}
	switch r.Intn(4) {
	case 0:
		return NotOf(randomExpr(r, depth-1))
	case 1:
		return AndOf(randomExpr(r, depth-1), randomExpr(r, depth-1))
	case 2:
		return OrOf(randomExpr(r, depth-1), randomExpr(r, depth-1))
	default:
		return XorOf(randomExpr(r, depth-1), randomExpr(r, depth-1))
	}
}

func TestPropertyStableEvalMatchesTruthTable(t *testing.T) {
	// Evaluating with stable logic values must agree with boolean
	// evaluation for random expressions and assignments.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		e := randomExpr(r, 4)
		vars := Vars(e)
		env := map[string]bool{}
		for _, v := range vars {
			env[v] = r.Intn(2) == 1
		}
		lenv := map[string]logic.Value{}
		for k, v := range env {
			if v {
				lenv[k] = logic.V1
			} else {
				lenv[k] = logic.V0
			}
		}
		want := EvalBool(e, env)
		got := e.Eval(lenv)
		if (got == logic.V1) != want || (got == logic.V0) == want {
			t.Fatalf("mismatch for %s under %v: %s vs %v", e, env, got, want)
		}
	}
}

func TestPropertyTransitionEvalConsistent(t *testing.T) {
	// For any expression, evaluating with transition values must have
	// Initial() equal to boolean eval of all initial levels and Final()
	// equal to boolean eval of all final levels (when fully determined).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randomExpr(r, 3)
		vars := Vars(e)
		lenv := map[string]logic.Value{}
		ienv := map[string]bool{}
		fenv := map[string]bool{}
		for _, v := range vars {
			val := logic.Value(r.Intn(4)) // 0, R, 0X... restrict to determined: pick from {V0,V1,VR,VF}
			switch r.Intn(4) {
			case 0:
				val = logic.V0
			case 1:
				val = logic.V1
			case 2:
				val = logic.VR
			case 3:
				val = logic.VF
			}
			lenv[v] = val
			ienv[v] = val.Initial() == logic.T1
			fenv[v] = val.Final() == logic.T1
		}
		got := e.Eval(lenv)
		wi := EvalBool(e, ienv)
		wf := EvalBool(e, fenv)
		return (got.Initial() == logic.T1) == wi && (got.Final() == logic.T1) == wf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCofactorShannon(t *testing.T) {
	// Shannon expansion: e ≡ (x & e|x=1) | (!x & e|x=0).
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		e := randomExpr(r, 4)
		vars := Vars(e)
		if len(vars) == 0 {
			continue
		}
		x := vars[r.Intn(len(vars))]
		shannon := OrOf(
			AndOf(V(x), Cofactor(e, x, true)),
			AndOf(NotOf(V(x)), Cofactor(e, x, false)),
		)
		if !equivalent(e, shannon) {
			t.Fatalf("Shannon expansion fails for %s on %s", e, x)
		}
	}
}
