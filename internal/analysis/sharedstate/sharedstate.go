// Package sharedstate defines an analyzer that guards the engine's
// shared caches against unguarded mutation.
//
// PR 2 made the true-path search concurrent: cell justification-cube
// caches and the k-worst pruner's bound tables are now read by many
// searcher goroutines at once. The invariant that keeps them safe is
// that every such structure is written only while it is still private —
// inside its constructor — or under a sync.Once. The race detector can
// only catch the schedules a test happens to produce; this analyzer
// checks the rule itself.
//
// Annotate a struct type by putting `stalint:shared` in its doc
// comment:
//
//	// pruner holds the bound tables shared by forked workers.
//	//
//	// stalint:shared
//	type pruner struct { ... }
//
// The analyzer then flags every write to a field of that type —
// assignment, map/slice element store, ++/--, delete — unless the
// write happens
//
//   - inside a function whose name starts with "new" or "New" (the
//     constructor convention used throughout this module), or in
//     package init, or
//   - inside a function literal passed to (*sync.Once).Do, or
//   - lexically after a Lock call on a sync.Mutex/RWMutex field of the
//     same value in the same function (`d.mu.Lock()` … `d.deques[w] =
//     …`) — the guarded-mutation pattern the parallel scheduler uses.
//     The analyzer checks lexical order, not dominance: a Lock on any
//     path whitelists later writes in that function, so keep guarded
//     types' methods small enough that the lock is unconditional.
//
// Deliberate warm-before-share mutation (a cache filled while the
// value is still goroutine-private, documented as such) and writes in
// helpers whose caller holds the lock are suppressed with
// `// stalint:ignore sharedstate <why>`.
//
// A stricter marker, `stalint:frozen`, declares a type immutable after
// construction — the shape of a value published through an atomic
// snapshot pointer: readers are lock-free, so there is no lock that
// could make a later write safe. For frozen types every write outside
// a constructor (new*/New*/init) is a diagnostic; the sync.Once and
// mutex-guard exemptions do not apply.
//
// The check is intra-package by design: shared fields are unexported,
// so all writes live in the declaring package.
package sharedstate

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"tpsta/internal/analysis/internal/ignore"
)

// Marker is the doc-comment word that opts a type into the check.
const Marker = "stalint:shared"

// FrozenMarker opts a type into the strict immutable-after-construction
// variant: no mutex or sync.Once exemption.
const FrozenMarker = "stalint:frozen"

// writeMode distinguishes the two annotation strengths.
type writeMode int

const (
	modeShared writeMode = iota // guarded mutation allowed
	modeFrozen                  // constructor-only, no exemptions
)

// Analyzer is the sharedstate pass.
const name = "sharedstate"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "writes to stalint:shared types must stay inside constructors or sync.Once; stalint:frozen types are constructor-only",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	shared := sharedTypes(pass)
	if len(shared) == 0 {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := ignore.New(pass, name)

	nodeFilter := []ast.Node{
		(*ast.AssignStmt)(nil),
		(*ast.IncDecStmt)(nil),
		(*ast.CallExpr)(nil),
	}
	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, ix, shared, lhs, stack)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, ix, shared, n.X, stack)
		case *ast.CallExpr:
			// delete(x.f, k) and clear(x.f) mutate their argument.
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
				checkWrite(pass, ix, shared, n.Args[0], stack)
			}
		}
		return true
	})
	return nil, nil
}

// sharedTypes collects the named struct types in this package whose
// declaration carries the stalint:shared or stalint:frozen marker,
// mapped to the annotation strength.
func sharedTypes(pass *analysis.Pass) map[types.Object]writeMode {
	shared := map[types.Object]writeMode{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				switch {
				case ignore.DocHasMarker(gd.Doc, FrozenMarker) ||
					ignore.DocHasMarker(ts.Doc, FrozenMarker) ||
					ignore.DocHasMarker(ts.Comment, FrozenMarker):
					shared[obj] = modeFrozen
				case ignore.DocHasMarker(gd.Doc, Marker) ||
					ignore.DocHasMarker(ts.Doc, Marker) ||
					ignore.DocHasMarker(ts.Comment, Marker):
					shared[obj] = modeShared
				}
			}
		}
	}
	return shared
}

// checkWrite reports lhs when it stores into a field of a shared or
// frozen type from a disallowed context.
func checkWrite(pass *analysis.Pass, ix *ignore.Index, shared map[types.Object]writeMode, lhs ast.Expr, stack []ast.Node) {
	sel, field, mode := sharedField(pass, shared, lhs)
	if sel == nil {
		return
	}
	if allowedContext(pass, stack, mode) {
		return
	}
	if mode == modeShared && mutexGuarded(pass, sel, lhs, stack) {
		return
	}
	owner := ownerName(pass, sel)
	if mode == modeFrozen {
		ix.Reportf(lhs.Pos(), "write to %s of frozen type %s outside its constructor (see stalint:frozen)",
			field, owner)
		return
	}
	ix.Reportf(lhs.Pos(), "write to %s of shared type %s outside a constructor or sync.Once (see stalint:shared)",
		field, owner)
}

// sharedField unwraps index/slice/star/paren layers off lhs and
// reports the selector that targets a field of an annotated type, the
// field name and the annotation strength. It returns (nil, "", 0) when
// lhs does not touch annotated state.
func sharedField(pass *analysis.Pass, shared map[types.Object]writeMode, lhs ast.Expr) (*ast.SelectorExpr, string, writeMode) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if mode, ok := ownedByShared(pass, shared, e.X); ok {
				return e, e.Sel.Name, mode
			}
			// x.a.b: the outer selector's base may itself be a shared
			// field chain.
			lhs = e.X
		default:
			return nil, "", modeShared
		}
	}
}

// ownedByShared reports whether expr's type (through pointers and
// aliases) is one of the annotated named types, and at which strength.
func ownedByShared(pass *analysis.Pass, shared map[types.Object]writeMode, expr ast.Expr) (writeMode, bool) {
	t := pass.TypesInfo.TypeOf(expr)
	for t != nil {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return modeShared, false
	}
	mode, ok := shared[named.Obj()]
	return mode, ok
}

// allowedContext walks the enclosing nodes innermost-first and reports
// whether the write sits in constructor scope — or, for merely shared
// (not frozen) types, under sync.Once.
func allowedContext(pass *analysis.Pass, stack []ast.Node, mode writeMode) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			if mode == modeShared && i > 0 && isOnceDoArg(pass, stack[i-1], n) {
				return true
			}
			// Other literals inherit their enclosing function's verdict:
			// keep walking out.
		case *ast.FuncDecl:
			name := n.Name.Name
			return strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New") || name == "init"
		}
	}
	return false
}

// mutexGuarded reports whether the enclosing function locks a
// sync.Mutex/RWMutex field of the same value before (lexically) the
// write: the guarded-mutation pattern, `d.mu.Lock()` followed by field
// writes. Helpers that rely on their caller holding the lock do not
// match and need an explicit stalint:ignore.
func mutexGuarded(pass *analysis.Pass, sel *ast.SelectorExpr, lhs ast.Expr, stack []ast.Node) bool {
	base := rootIdent(sel.X)
	if base == nil {
		return false
	}
	baseObj := pass.TypesInfo.Uses[base]
	if baseObj == nil {
		return false
	}
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			body = n.Body
		case *ast.FuncDecl:
			body = n.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (fun.Sel.Name != "Lock" && fun.Sel.Name != "RLock") || call.Pos() >= lhs.Pos() {
			return true
		}
		// fun.X must be a mutex-typed field of the same base value:
		// base.mu in base.mu.Lock().
		mf, ok := fun.X.(*ast.SelectorExpr)
		if !ok || !isSyncMutex(pass.TypesInfo.TypeOf(mf)) {
			return true
		}
		if mb := rootIdent(mf.X); mb != nil && pass.TypesInfo.Uses[mb] == baseObj {
			guarded = true
		}
		return true
	})
	return guarded
}

// rootIdent unwraps selector/paren/star/index layers to the base
// identifier of an expression (d in d.deques[w], nil for anything that
// does not bottom out in one).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isSyncMutex reports whether t (through pointers) is sync.Mutex or
// sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// isOnceDoArg reports whether lit is the argument of a
// (*sync.Once).Do call whose AST parent is parent.
func isOnceDoArg(pass *analysis.Pass, parent ast.Node, lit *ast.FuncLit) bool {
	call, ok := parent.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || call.Args[0] != lit {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Once" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// ownerName renders the shared type a selector writes through, for the
// diagnostic message.
func ownerName(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	t := pass.TypesInfo.TypeOf(sel.X)
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.TypeString(t, nil)
}
