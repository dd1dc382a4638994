// Package expr provides boolean expression trees used to define standard
// cell logic functions. Expressions support evaluation over the package
// logic transition algebra, truth-table generation, structural duals (for
// deriving CMOS pull-up networks from pull-down networks) and the Boolean
// difference (for enumerating sensitization vectors).
package expr

import (
	"fmt"
	"sort"
	"strings"

	"tpsta/internal/logic"
)

// Node is a boolean expression tree node.
type Node interface {
	// Eval evaluates the expression under the given assignment of variable
	// names to transition-logic values. Unassigned variables read as X.
	Eval(env map[string]logic.Value) logic.Value
	// Vars appends the variable names appearing in the expression to dst.
	vars(dst map[string]bool)
	// String renders the expression with explicit operators.
	String() string
}

// Var references an input pin by name.
type Var struct{ Name string }

// Const is a constant 0 or 1.
type Const struct{ Val bool }

// Not negates its operand.
type Not struct{ X Node }

// And conjoins two or more operands.
type And struct{ Xs []Node }

// Or disjoins two or more operands.
type Or struct{ Xs []Node }

// Xor exclusive-ors exactly two operands.
type Xor struct{ A, B Node }

// V is shorthand for a variable reference.
func V(name string) Node { return Var{name} }

// NotOf negates x.
func NotOf(x Node) Node { return Not{x} }

// AndOf builds an n-ary conjunction.
func AndOf(xs ...Node) Node { return And{append([]Node(nil), xs...)} }

// OrOf builds an n-ary disjunction.
func OrOf(xs ...Node) Node { return Or{append([]Node(nil), xs...)} }

// XorOf builds a two-input exclusive-or.
func XorOf(a, b Node) Node { return Xor{a, b} }

func (v Var) Eval(env map[string]logic.Value) logic.Value {
	if val, ok := env[v.Name]; ok {
		return val
	}
	return logic.VX
}

func (c Const) Eval(map[string]logic.Value) logic.Value {
	if c.Val {
		return logic.V1
	}
	return logic.V0
}

func (n Not) Eval(env map[string]logic.Value) logic.Value {
	return logic.Not(n.X.Eval(env))
}

func (a And) Eval(env map[string]logic.Value) logic.Value {
	out := logic.V1
	for _, x := range a.Xs {
		out = logic.And(out, x.Eval(env))
	}
	return out
}

func (o Or) Eval(env map[string]logic.Value) logic.Value {
	out := logic.V0
	for _, x := range o.Xs {
		out = logic.Or(out, x.Eval(env))
	}
	return out
}

func (x Xor) Eval(env map[string]logic.Value) logic.Value {
	return logic.Xor(x.A.Eval(env), x.B.Eval(env))
}

func (v Var) vars(dst map[string]bool) { dst[v.Name] = true }
func (c Const) vars(map[string]bool)   {}
func (n Not) vars(dst map[string]bool) { n.X.vars(dst) }
func (a And) vars(dst map[string]bool) {
	for _, x := range a.Xs {
		x.vars(dst)
	}
}
func (o Or) vars(dst map[string]bool) {
	for _, x := range o.Xs {
		x.vars(dst)
	}
}
func (x Xor) vars(dst map[string]bool) { x.A.vars(dst); x.B.vars(dst) }

func (v Var) String() string { return v.Name }
func (c Const) String() string {
	if c.Val {
		return "1"
	}
	return "0"
}
func (n Not) String() string { return "!" + paren(n.X) }
func (a And) String() string { return joinOp(a.Xs, "*") }
func (o Or) String() string  { return joinOp(o.Xs, "+") }
func (x Xor) String() string { return paren(x.A) + "^" + paren(x.B) }

func paren(n Node) string {
	switch n.(type) {
	case Var, Const, Not:
		return n.String()
	default:
		return "(" + n.String() + ")"
	}
}

func joinOp(xs []Node, op string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = paren(x)
	}
	return strings.Join(parts, op)
}

// Vars returns the sorted list of variable names in e.
func Vars(e Node) []string {
	set := map[string]bool{}
	e.vars(set)
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EvalBool evaluates e over a plain boolean assignment.
func EvalBool(e Node, env map[string]bool) bool {
	lenv := make(map[string]logic.Value, len(env))
	for k, v := range env {
		if v {
			lenv[k] = logic.V1
		} else {
			lenv[k] = logic.V0
		}
	}
	return e.Eval(lenv) == logic.V1
}

// TruthTable enumerates e over all assignments of vars (in the given
// order: bit i of the row index is vars[i]) and returns one output bit per
// row. len(result) == 1<<len(vars).
func TruthTable(e Node, vars []string) []bool {
	n := len(vars)
	if n > 20 {
		panic(fmt.Sprintf("expr: truth table over %d variables", n))
	}
	rows := 1 << n
	out := make([]bool, rows)
	env := make(map[string]bool, n)
	for r := 0; r < rows; r++ {
		for i, name := range vars {
			env[name] = r>>i&1 == 1
		}
		out[r] = EvalBool(e, env)
	}
	return out
}

// Dual returns the structural dual of e: ANDs and ORs swapped, variables
// and constants kept. For a series/parallel transistor network implementing
// a pull-down function f, the pull-up network implements Dual(f) with
// complemented device polarity — this is how package cell derives CMOS
// pull-up topologies. Dual panics on Not or Xor nodes: transistor networks
// are built from unate series/parallel structure only.
func Dual(e Node) Node {
	switch n := e.(type) {
	case Var:
		return n
	case Const:
		return Const{!n.Val}
	case And:
		xs := make([]Node, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = Dual(x)
		}
		return Or{xs}
	case Or:
		xs := make([]Node, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = Dual(x)
		}
		return And{xs}
	default:
		panic(fmt.Sprintf("expr: Dual of non-series/parallel node %T", e))
	}
}

// Cofactor returns e with variable name fixed to val.
func Cofactor(e Node, name string, val bool) Node {
	switch n := e.(type) {
	case Var:
		if n.Name == name {
			return Const{val}
		}
		return n
	case Const:
		return n
	case Not:
		return Not{Cofactor(n.X, name, val)}
	case And:
		xs := make([]Node, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = Cofactor(x, name, val)
		}
		return And{xs}
	case Or:
		xs := make([]Node, len(n.Xs))
		for i, x := range n.Xs {
			xs[i] = Cofactor(x, name, val)
		}
		return Or{xs}
	case Xor:
		return Xor{Cofactor(n.A, name, val), Cofactor(n.B, name, val)}
	default:
		panic(fmt.Sprintf("expr: Cofactor of %T", e))
	}
}

// BooleanDifference returns ∂e/∂name = e|name=0 XOR e|name=1. An
// assignment of the remaining variables sensitizes input name exactly when
// the boolean difference evaluates to 1 under it.
func BooleanDifference(e Node, name string) Node {
	return Xor{Cofactor(e, name, false), Cofactor(e, name, true)}
}

// SensitizingAssignments enumerates every assignment of the side variables
// (all variables of e except pin) under which a transition on pin
// propagates to the output of e. Each returned map is a complete
// assignment of the side variables. Order is deterministic: side variables
// sorted, assignments in increasing binary order (bit i = side var i).
func SensitizingAssignments(e Node, pin string) []map[string]bool {
	vars := Vars(e)
	side := make([]string, 0, len(vars))
	found := false
	for _, v := range vars {
		if v == pin {
			found = true
			continue
		}
		side = append(side, v)
	}
	if !found {
		return nil
	}
	diff := BooleanDifference(e, pin)
	var out []map[string]bool
	rows := 1 << len(side)
	for r := 0; r < rows; r++ {
		env := make(map[string]bool, len(side)+1)
		for i, name := range side {
			env[name] = r>>i&1 == 1
		}
		if EvalBool(diff, env) {
			out = append(out, env)
		}
	}
	return out
}

// IsUnate reports whether e is built only from Var, Const, And and Or
// nodes — the series/parallel form required for transistor network
// derivation.
func IsUnate(e Node) bool {
	switch n := e.(type) {
	case Var, Const:
		return true
	case And:
		for _, x := range n.Xs {
			if !IsUnate(x) {
				return false
			}
		}
		return true
	case Or:
		for _, x := range n.Xs {
			if !IsUnate(x) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
