// Package floatcmp defines an analyzer that bans raw equality on
// floating-point values.
//
// Delay and slew arithmetic in this engine is polynomial SPDM
// evaluation: the same physical quantity computed along two different
// paths differs in the last few ulps, so `==`/`!=` on float64 silently
// turns into "which rounding did you get". The invariant is that all
// float equality goes through the epsilon helpers in internal/num
// (num.Eq, num.IsZero) — or through math.IsNaN for the self-comparison
// idiom.
//
// The analyzer flags:
//
//   - x == y and x != y where both operands are floating point,
//     including comparisons against literal constants (even 0: an
//     exact-zero guard on a computed quantity is still a rounding
//     hazard; use num.IsZero);
//   - switch statements whose tag is floating point (each case is an
//     equality test).
//
// Suppress intentional exact comparisons (IEEE-754 sentinels,
// bit-pattern round-trips) with `// stalint:ignore floatcmp <why>`.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"tpsta/internal/analysis/internal/ignore"
)

// Analyzer is the floatcmp pass.
const name = "floatcmp"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flag ==/!= on floating-point delay/slew values; use internal/num epsilon helpers",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := ignore.New(pass, name)

	nodeFilter := []ast.Node{
		(*ast.BinaryExpr)(nil),
		(*ast.SwitchStmt)(nil),
	}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return
			}
			if !isFloat(pass, n.X) || !isFloat(pass, n.Y) {
				return
			}
			if selfCompare(n) {
				ix.Reportf(n.OpPos, "floating-point self-comparison; use math.IsNaN")
				return
			}
			ix.Reportf(n.OpPos, "floating-point equality (%s); use num.Eq/num.IsZero from internal/num", n.Op)
		case *ast.SwitchStmt:
			if n.Tag == nil || !isFloat(pass, n.Tag) {
				return
			}
			ix.Reportf(n.Switch, "switch on floating-point value compares with ==; use num.Eq in if/else chains")
		}
	})
	return nil, nil
}

// isFloat reports whether e's type has a floating-point underlying
// type. Untyped float constants count: `x == 0.5` is still an exact
// comparison on the typed side.
func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// selfCompare detects `x == x` / `x != x`, the pre-math.IsNaN NaN
// test, for a more targeted message.
func selfCompare(n *ast.BinaryExpr) bool {
	return types.ExprString(n.X) == types.ExprString(n.Y)
}
