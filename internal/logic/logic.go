// Package logic implements the semi-undetermined, dual-value logic system
// used by the single-pass true-path engine (Section IV.B of the paper,
// after Bose, Agrawal and Agrawal's path-delay logic systems).
//
// A Value describes the trajectory of a signal during one clock event as a
// pair (initial, final) of three-state levels {0, 1, X}. The nine resulting
// values include the classic stable levels (0, 1), the two transitions
// (R = rise = 0→1, F = fall = 1→0), the fully undetermined X, and the four
// semi-undetermined values the paper highlights: X0 ("starts unknown, ends
// 0"), X1, 0X and 1X. Semi-undetermined values let the engine detect logic
// incompatibilities before every implied node is fully assigned.
//
// A Dual carries two Values at once — the scenario in which the path input
// rises and the one in which it falls — so a single traversal computes both
// transitions of a path ("dual value logic system" in the paper).
package logic

import "fmt"

// Trit is a three-state logic level: 0, 1 or unknown.
type Trit uint8

// The three levels of a Trit.
const (
	T0 Trit = iota // logic 0
	T1             // logic 1
	TX             // unknown
)

// String returns "0", "1" or "X".
func (t Trit) String() string {
	switch t {
	case T0:
		return "0"
	case T1:
		return "1"
	default:
		return "X"
	}
}

// notT, andT, orT implement Kleene three-valued logic on levels.
func notT(a Trit) Trit {
	switch a {
	case T0:
		return T1
	case T1:
		return T0
	default:
		return TX
	}
}

func andT(a, b Trit) Trit {
	if a == T0 || b == T0 {
		return T0
	}
	if a == T1 && b == T1 {
		return T1
	}
	return TX
}

func orT(a, b Trit) Trit {
	if a == T1 || b == T1 {
		return T1
	}
	if a == T0 && b == T0 {
		return T0
	}
	return TX
}

func xorT(a, b Trit) Trit {
	if a == TX || b == TX {
		return TX
	}
	if a == b {
		return T0
	}
	return T1
}

// intersectT returns the most general level compatible with both a and b.
// ok is false when a and b are contradictory (one is 0, the other 1).
func intersectT(a, b Trit) (Trit, bool) {
	if a == TX {
		return b, true
	}
	if b == TX || a == b {
		return a, true
	}
	return TX, false
}

// Value is a signal trajectory: an (initial, final) pair of Trits.
// The zero Value is V0 (stable 0).
type Value uint8

// The nine values of the system. Naming follows the paper: a leading or
// trailing X marks the undetermined end of the trajectory.
const (
	V0  = Value(uint8(T0)*3 + uint8(T0)) // stable 0
	VR  = Value(uint8(T0)*3 + uint8(T1)) // rising transition 0→1
	V0X = Value(uint8(T0)*3 + uint8(TX)) // starts 0, end unknown
	VF  = Value(uint8(T1)*3 + uint8(T0)) // falling transition 1→0
	V1  = Value(uint8(T1)*3 + uint8(T1)) // stable 1
	V1X = Value(uint8(T1)*3 + uint8(TX)) // starts 1, end unknown
	VX0 = Value(uint8(TX)*3 + uint8(T0)) // start unknown, ends 0
	VX1 = Value(uint8(TX)*3 + uint8(T1)) // start unknown, ends 1
	VX  = Value(uint8(TX)*3 + uint8(TX)) // fully undetermined
)

// NumValues is the cardinality of the Value domain.
const NumValues = 9

// FromTrits builds a Value from its initial and final levels.
func FromTrits(initial, final Trit) Value {
	return Value(uint8(initial)*3 + uint8(final))
}

// Initial returns the level the signal holds before the event.
func (v Value) Initial() Trit { return Trit(uint8(v) / 3) }

// Final returns the level the signal settles to after the event.
func (v Value) Final() Trit { return Trit(uint8(v) % 3) }

// IsStable reports whether v holds a constant definite level (0 or 1).
func (v Value) IsStable() bool { return v == V0 || v == V1 }

// String renders the value in the paper's notation.
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	case VR:
		return "R"
	case VF:
		return "F"
	case VX:
		return "X"
	case VX0:
		return "X0"
	case VX1:
		return "X1"
	case V0X:
		return "0X"
	case V1X:
		return "1X"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v))
	}
}

// Not returns the complement trajectory.
func Not(a Value) Value {
	return FromTrits(notT(a.Initial()), notT(a.Final()))
}

// And returns the conjunction of two trajectories, evaluated end-wise
// (floating-mode evaluation: the initial levels combine and the final
// levels combine independently).
func And(a, b Value) Value {
	return FromTrits(andT(a.Initial(), b.Initial()), andT(a.Final(), b.Final()))
}

// Or returns the disjunction of two trajectories.
func Or(a, b Value) Value {
	return FromTrits(orT(a.Initial(), b.Initial()), orT(a.Final(), b.Final()))
}

// Xor returns the exclusive-or of two trajectories.
func Xor(a, b Value) Value {
	return FromTrits(xorT(a.Initial(), b.Initial()), xorT(a.Final(), b.Final()))
}

// Intersect returns the most specific trajectory compatible with both a
// and b, treating X ends as wildcards. ok is false on contradiction
// (e.g. Intersect(V1, V0), or Intersect(VR, VF)).
//
// Intersect is how the path engine merges a required value into a node's
// current implied value: requiring "ends at 1" (VX1) on a node already
// known to be V0 fails immediately — the early-conflict detection the
// semi-undetermined values exist for. It is one load from intersectTab;
// a and b must be valid Values.
func Intersect(a, b Value) (Value, bool) {
	v := intersectTab[a][b]
	if v == none {
		return VX, false
	}
	return v, true
}

// Refines reports whether a is equal to or more specific than b — that is,
// whether every trajectory described by a is also described by b.
func Refines(a, b Value) bool { return refinesTab[a][b] }

// Compatible reports whether a and b have a non-empty intersection.
func Compatible(a, b Value) bool { return compatibleTab[a][b] }

// none marks a contradictory pair in intersectTab: it is not a Value.
const none = Value(NumValues)

// The end-wise lattice operations as lookup tables, row a and column b:
// the forward-implication loop of the path engine intersects a value on
// every worklist item, and one load beats splitting both Values into
// their ends. intersectTab holds none for a contradictory pair.
var intersectTab, refinesTab, compatibleTab = latticeTables()

// latticeTables evaluates Intersect, Refines and Compatible by their
// end-wise definitions on every pair of Values: two trajectories meet
// end by end, an X end is a wildcard and two definite ends must agree;
// a refines b where each end of b is X or equal to a's.
func latticeTables() (meet [NumValues][NumValues]Value, refines, compatible [NumValues][NumValues]bool) {
	for _, a := range All() {
		for _, b := range All() {
			i, okI := intersectT(a.Initial(), b.Initial())
			f, okF := intersectT(a.Final(), b.Final())
			meet[a][b] = none
			if okI && okF {
				meet[a][b] = FromTrits(i, f)
			}
			compatible[a][b] = okI && okF
			refines[a][b] = (b.Initial() == TX || a.Initial() == b.Initial()) &&
				(b.Final() == TX || a.Final() == b.Final())
		}
	}
	return meet, refines, compatible
}

// StableOf converts a definite level to its stable trajectory.
func StableOf(t Trit) Value { return FromTrits(t, t) }

// FinalOf builds the semi-undetermined trajectory that merely settles at
// level t (X0 / X1): the floating-mode side-input requirement — the value
// before the event is left unknown.
func FinalOf(t Trit) Value { return FromTrits(TX, t) }

// Dual carries the two scenarios the engine propagates simultaneously:
// Rise is the circuit state when the traced path's origin rises, Fall when
// it falls. Side inputs hold the same steady values in both scenarios, so
// one traversal sensitizes both transitions at once.
type Dual struct {
	Rise Value
	Fall Value
}

// DualX is the fully undetermined dual value.
var DualX = Dual{VX, VX}

// DualTransition is the dual value of the on-path origin itself: rising in
// the rise scenario, falling in the fall scenario.
var DualTransition = Dual{VR, VF}

// String renders the dual as "rise/fall", collapsing to a single token
// when both scenarios agree.
func (d Dual) String() string {
	if d.Rise == d.Fall {
		return d.Rise.String()
	}
	return d.Rise.String() + "/" + d.Fall.String()
}

// All returns every Value, for exhaustive table-driven tests.
func All() []Value {
	vs := make([]Value, NumValues)
	for i := range vs {
		vs[i] = Value(i)
	}
	return vs
}
