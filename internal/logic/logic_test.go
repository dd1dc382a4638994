package logic

import (
	"testing"
	"testing/quick"
)

func TestValueEncoding(t *testing.T) {
	cases := []struct {
		v        Value
		ini, fin Trit
		s        string
	}{
		{V0, T0, T0, "0"},
		{V1, T1, T1, "1"},
		{VR, T0, T1, "R"},
		{VF, T1, T0, "F"},
		{VX, TX, TX, "X"},
		{VX0, TX, T0, "X0"},
		{VX1, TX, T1, "X1"},
		{V0X, T0, TX, "0X"},
		{V1X, T1, TX, "1X"},
	}
	for _, c := range cases {
		if c.v.Initial() != c.ini || c.v.Final() != c.fin {
			t.Errorf("%s: got (%v,%v), want (%v,%v)", c.s, c.v.Initial(), c.v.Final(), c.ini, c.fin)
		}
		if c.v.String() != c.s {
			t.Errorf("String: got %q want %q", c.v.String(), c.s)
		}
		if FromTrits(c.ini, c.fin) != c.v {
			t.Errorf("FromTrits(%v,%v) != %s", c.ini, c.fin, c.s)
		}
	}
}

func TestPredicates(t *testing.T) {
	for _, v := range All() {
		want := v.Initial() != TX && v.Initial() == v.Final()
		if v.IsStable() != want {
			t.Errorf("%s IsStable = %v, want %v", v, v.IsStable(), want)
		}
	}
}

func TestSemiUndeterminedAndExample(t *testing.T) {
	// The paper's example: a falling transition on input A of an AND2 with
	// B undetermined yields X0 — starts unknown, ends at logic 0.
	got := And(VF, VX)
	if got != VX0 {
		t.Fatalf("And(F, X) = %s, want X0", got)
	}
	// Dually for OR with a rising input: ends at 1.
	if got := Or(VR, VX); got != VX1 {
		t.Fatalf("Or(R, X) = %s, want X1", got)
	}
}

func TestTruthTableSpotChecks(t *testing.T) {
	cases := []struct {
		op      string
		a, b, z Value
	}{
		{"and", V1, V1, V1},
		{"and", V1, V0, V0},
		{"and", VR, V1, VR},
		{"and", VF, V1, VF},
		{"and", VR, V0, V0},
		{"and", VR, VF, V0}, // 0∧1 → 0, 1∧0 → 0
		{"and", VR, VR, VR},
		{"and", VX1, V1, VX1},
		{"or", V0, V0, V0},
		{"or", VR, V0, VR},
		{"or", VR, VF, V1}, // 0∨1 → 1, 1∨0 → 1
		{"or", VF, VX, V1X},
		{"or", VX0, V0, VX0},
		{"xor", VR, VR, V0},
		{"xor", VR, V1, VF},
		{"xor", VR, VX, VX},
	}
	for _, c := range cases {
		var got Value
		switch c.op {
		case "and":
			got = And(c.a, c.b)
		case "or":
			got = Or(c.a, c.b)
		case "xor":
			got = Xor(c.a, c.b)
		}
		if got != c.z {
			t.Errorf("%s(%s,%s) = %s, want %s", c.op, c.a, c.b, got, c.z)
		}
	}
}

func TestNot(t *testing.T) {
	pairs := map[Value]Value{
		V0: V1, V1: V0, VR: VF, VF: VR, VX: VX,
		VX0: VX1, VX1: VX0, V0X: V1X, V1X: V0X,
	}
	for a, want := range pairs {
		if got := Not(a); got != want {
			t.Errorf("Not(%s) = %s, want %s", a, got, want)
		}
		if Not(Not(a)) != a {
			t.Errorf("double negation fails for %s", a)
		}
	}
}

func TestPropertyDeMorgan(t *testing.T) {
	f := func(ai, bi uint8) bool {
		a, b := Value(ai%NumValues), Value(bi%NumValues)
		return Not(And(a, b)) == Or(Not(a), Not(b)) &&
			Not(Or(a, b)) == And(Not(a), Not(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCommutativeAssociative(t *testing.T) {
	comm := func(ai, bi uint8) bool {
		a, b := Value(ai%NumValues), Value(bi%NumValues)
		return And(a, b) == And(b, a) && Or(a, b) == Or(b, a) && Xor(a, b) == Xor(b, a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(ai, bi, ci uint8) bool {
		a, b, c := Value(ai%NumValues), Value(bi%NumValues), Value(ci%NumValues)
		return And(And(a, b), c) == And(a, And(b, c)) &&
			Or(Or(a, b), c) == Or(a, Or(b, c))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIdentityAndDominance(t *testing.T) {
	for _, a := range All() {
		if And(a, V1) != a {
			t.Errorf("And(%s,1) != %s", a, a)
		}
		if Or(a, V0) != a {
			t.Errorf("Or(%s,0) != %s", a, a)
		}
		if And(a, V0) != V0 {
			t.Errorf("And(%s,0) != 0", a)
		}
		if Or(a, V1) != V1 {
			t.Errorf("Or(%s,1) != 1", a)
		}
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b Value
		want Value
		ok   bool
	}{
		{VX, V1, V1, true},
		{V1, VX, V1, true},
		{VX1, V1, V1, true},  // start resolves to 1
		{VX0, VR, VX, false}, // ends 0 vs ends 1
		{V0, V1, VX, false},
		{VR, VF, VX, false},
		{VX1, VR, VR, true},
		{V0X, VX0, V0, true}, // starts 0 + ends 0 = stable 0
		{VX, VX, VX, true},
	}
	for _, c := range cases {
		got, ok := Intersect(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Intersect(%s,%s) = %s,%v want %s,%v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestPropertyIntersectLattice(t *testing.T) {
	// Intersection is commutative; X is the identity; result refines both
	// operands; Refines(a,b) ⇒ Intersect(a,b)=a.
	f := func(ai, bi uint8) bool {
		a, b := Value(ai%NumValues), Value(bi%NumValues)
		g1, ok1 := Intersect(a, b)
		g2, ok2 := Intersect(b, a)
		if ok1 != ok2 || (ok1 && g1 != g2) {
			return false
		}
		if ok1 && (!Refines(g1, a) || !Refines(g1, b)) {
			return false
		}
		if Refines(a, b) {
			g, ok := Intersect(a, b)
			if !ok || g != a {
				return false
			}
		}
		gx, ok := Intersect(a, VX)
		return ok && gx == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// trajectories returns the set of concrete (initial, final) level pairs
// that v describes, one bit per pair: an X end stands for both levels.
func trajectories(v Value) uint8 {
	var set uint8
	for _, i := range []Trit{T0, T1} {
		for _, f := range []Trit{T0, T1} {
			if (v.Initial() == TX || v.Initial() == i) && (v.Final() == TX || v.Final() == f) {
				set |= 1 << (2*uint(i) + uint(f))
			}
		}
	}
	return set
}

// TestLatticeTablesMatchSets checks the tables behind Intersect,
// Refines and Compatible on all 81 pairs against what a Value means, the
// set of trajectories it describes: Intersect is set intersection, a
// contradiction when that is empty; Refines is inclusion; Compatible is
// a non-empty intersection.
func TestLatticeTablesMatchSets(t *testing.T) {
	for _, a := range All() {
		for _, b := range All() {
			meet := trajectories(a) & trajectories(b)
			if got, ok := Intersect(a, b); ok != (meet != 0) || (ok && trajectories(got) != meet) || (!ok && got != VX) {
				t.Errorf("Intersect(%s, %s) = %s, %v; trajectories %04b", a, b, got, ok, meet)
			}
			if got, want := Refines(a, b), trajectories(a)&^trajectories(b) == 0; got != want {
				t.Errorf("Refines(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := Compatible(a, b), meet != 0; got != want {
				t.Errorf("Compatible(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestRefines(t *testing.T) {
	if !Refines(VR, VX) || !Refines(VR, VX1) || !Refines(VR, V0X) {
		t.Error("R refines X, X1 and 0X")
	}
	if Refines(VX, VR) || Refines(VF, VX1) {
		t.Error("overly broad or contradictory refinement accepted")
	}
	for _, a := range All() {
		if !Refines(a, a) || !Refines(a, VX) {
			t.Errorf("reflexivity/top fails for %s", a)
		}
	}
}

func TestCompatible(t *testing.T) {
	if Compatible(V0, V1) || Compatible(VR, VF) {
		t.Error("contradictions reported compatible")
	}
	if !Compatible(VX1, VR) || !Compatible(VX, V0) {
		t.Error("compatible pairs rejected")
	}
}

// TestDualOps checks dual propagation as the engine performs it: one
// evaluation per launch scenario, side inputs holding the same value in
// both.
func TestDualOps(t *testing.T) {
	d := DualTransition
	if d.Rise != VR || d.Fall != VF {
		t.Fatal("DualTransition wrong")
	}
	both := func(op func(a, b Value) Value, a, b Dual) Dual {
		return Dual{op(a.Rise, b.Rise), op(a.Fall, b.Fall)}
	}
	// An AND2 with the on-path input transitioning and the side input at 1
	// keeps propagating both transitions.
	if out := both(And, d, Dual{V1, V1}); out != d {
		t.Errorf("And propagation: got %s", out)
	}
	// A controlling 0 side input kills both.
	if blocked := both(And, d, Dual{V0, V0}); blocked != (Dual{V0, V0}) {
		t.Errorf("blocked dual still propagates: %s", blocked)
	}
	if inv := (Dual{Not(d.Rise), Not(d.Fall)}); inv != (Dual{VF, VR}) {
		t.Errorf("Not: %s", inv)
	}
	if got := both(Xor, d, Dual{V1, V1}); got != (Dual{VF, VR}) {
		t.Errorf("Xor through inverting side: %s", got)
	}
}

// TestDualIntersectAndString intersects duals scenario by scenario, as
// the engine's implication does, and renders them.
func TestDualIntersectAndString(t *testing.T) {
	a := Dual{VX1, VX}
	b := Dual{VR, VX0}
	r, okR := Intersect(a.Rise, b.Rise)
	f, okF := Intersect(a.Fall, b.Fall)
	if !okR || !okF || r != VR || f != VX0 {
		t.Errorf("Intersect by scenario = %s/%s, %v/%v", r, f, okR, okF)
	}
	if _, ok := Intersect(V0, V1); ok {
		t.Error("conflicting rise scenarios intersected")
	}
	if s := (Dual{V1, V1}).String(); s != "1" {
		t.Errorf("collapsed String: %s", s)
	}
	if DualTransition.String() != "R/F" {
		t.Errorf("dual String: %s", DualTransition)
	}
}

func TestPropertyOrDualityViaNot(t *testing.T) {
	// Or must equal the De Morgan construction from And for all pairs —
	// exhaustive, since the domain is only 81 pairs.
	for _, a := range All() {
		for _, b := range All() {
			if Or(a, b) != Not(And(Not(a), Not(b))) {
				t.Fatalf("duality fails at (%s,%s)", a, b)
			}
			// Xor via and/or/not decomposition.
			want := Or(And(a, Not(b)), And(Not(a), b))
			if Xor(a, b) != want {
				t.Fatalf("xor decomposition fails at (%s,%s): %s vs %s", a, b, Xor(a, b), want)
			}
		}
	}
}

func TestFinalOf(t *testing.T) {
	if FinalOf(T0) != VX0 || FinalOf(T1) != VX1 || FinalOf(TX) != VX {
		t.Error("FinalOf mapping wrong")
	}
	// The floating-mode side requirement is compatible with a transition
	// that settles at the required level, and only with those.
	if !Compatible(FinalOf(T1), VR) || Compatible(FinalOf(T1), VF) {
		t.Error("FinalOf compatibility wrong")
	}
	if !Refines(VR, FinalOf(T1)) || Refines(VR, FinalOf(T0)) {
		t.Error("FinalOf refinement wrong")
	}
}
