// Package callgraph is the shared bottom-up call-graph/summary engine
// under the stalint contract analyzers (noalloc, determinism).
//
// It is a plain go/analysis pass: for every function declared in the
// package it computes a local summary — direct allocation sites, direct
// nondeterminism sources, and the outgoing call edges — then resolves
// per-function transitive verdicts ("may allocate", "draws on a
// nondeterminism source") by a fixed point over the package-local call
// graph. Cross-package edges inside this module resolve through
// analysis facts exported by the same pass on the dependency packages
// (the go vet driver runs analyzers over dependencies exactly for
// this); edges into packages outside the module resolve through policy
// tables instead — an intrinsic allowlist for allocation (sync/atomic,
// math/bits, time.Now, ...) and a denylist for nondeterminism
// (math/rand, crypto/rand), everything else being assumed to allocate
// and assumed deterministic respectively.
//
// The engine understands four source markers:
//
//	// stalint:noalloc <why>        function doc: zero-alloc contract root
//	// stalint:deterministic <why>  function doc: determinism contract root
//	// stalint:coldpath <why>       function doc: excluded from summaries —
//	//                              a guarded, amortized or one-time path
//	//                              whose cost is accepted by design
//	// stalint:alloc-ok <why>       in a function body: the zero-alloc
//	//                              checked region ends at this line
//
// and honours the repository-wide `stalint:ignore noalloc|determinism`
// suppression protocol: a suppressed site is dropped and a suppressed
// call edge is not traversed, so a justified ignore is a reachability
// cut point, not just a muted report.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"tpsta/internal/analysis/internal/ignore"
)

// Marker words recognized in function doc comments and bodies.
const (
	MarkNoalloc       = "stalint:noalloc"
	MarkDeterministic = "stalint:deterministic"
	MarkColdpath      = "stalint:coldpath"
	MarkAllocOK       = "stalint:alloc-ok"
)

// modulePrefix gates fact exchange: summaries are exported/imported
// only for packages of this module, so stdlib objects never carry (or
// miss) facts and external calls always go through the policy tables.
const modulePrefix = "tpsta"

// obsPkgSuffix identifies the observability layer: calls into it are
// determinism sinks by policy (metrics/traces never feed result
// values), and the time-flow exemption treats its call arguments as a
// legal destination for timestamps.
const obsPkgSuffix = "internal/obs"

// Site is one direct finding inside a function body: an allocating
// operation or a nondeterminism source, with a human-readable reason.
type Site struct {
	Pos    token.Pos
	Reason string
}

// CallEdge is one outgoing call from a function body. Static calls
// carry the callee; dynamic calls (func values, interface methods)
// carry a description instead.
type CallEdge struct {
	Pos     token.Pos
	Callee  *types.Func // nil when dynamic
	Dynamic string      // non-empty description when dynamic
	// NoallocCut marks edges the noalloc analysis must not traverse:
	// suppressed by `stalint:ignore noalloc` or inside a
	// stalint:alloc-ok region.
	NoallocCut bool
	// DetCut is the same for `stalint:ignore determinism`.
	DetCut bool
}

// FuncSummary is the per-function analysis product.
type FuncSummary struct {
	Obj  *types.Func
	Decl *ast.FuncDecl

	NoallocRoot bool // doc carries stalint:noalloc
	DetRoot     bool // doc carries stalint:deterministic
	Coldpath    bool // doc carries stalint:coldpath

	AllocSites  []Site // direct, unsuppressed, before any alloc-ok line
	NondetSites []Site // direct, unsuppressed
	Calls       []CallEdge

	// Transitive verdicts over the package-local graph + facts.
	MayAlloc     bool
	AllocReason  string
	Nondet       bool
	NondetReason string
}

// Info is the analyzer's result: summaries for every function declared
// in the package, plus the hooks clients need to resolve edges.
type Info struct {
	Pass  *analysis.Pass
	Funcs map[*types.Func]*FuncSummary
}

// EdgeMayAlloc resolves a call edge for the allocation verdict, for
// client analyzers walking the graph from contract roots.
func (info *Info) EdgeMayAlloc(e *CallEdge) (bool, string) {
	return edgeMayAlloc(info.Pass, info, e)
}

// EdgeNondet is EdgeMayAlloc's determinism counterpart.
func (info *Info) EdgeNondet(e *CallEdge) (bool, string) {
	return edgeNondet(info.Pass, info, e)
}

// summaryFact is the cross-package form of a summary's transitive
// verdicts. Reasons are pre-rendered strings (token.Pos does not
// survive serialization).
type summaryFact struct {
	MayAlloc     bool
	AllocReason  string
	Nondet       bool
	NondetReason string
	Coldpath     bool
}

func (*summaryFact) AFact()           {}
func (f *summaryFact) String() string { return "callgraph summary" }

// Analyzer computes the summaries. It reports nothing itself; noalloc
// and determinism consume its result.
var Analyzer = &analysis.Analyzer{
	Name:       "callgraphsummary",
	Doc:        "bottom-up per-function may-allocate / nondeterminism-source summaries (internal engine under noalloc and determinism)",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	ResultType: reflect.TypeOf((*Info)(nil)),
	FactTypes:  []analysis.Fact{(*summaryFact)(nil)},
	Run:        run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := &Info{Pass: pass, Funcs: map[*types.Func]*FuncSummary{}}

	ignAlloc := ignore.New(pass, "noalloc")
	ignDet := ignore.New(pass, "determinism")

	var pending []timePending
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		s := &FuncSummary{
			Obj:         obj,
			Decl:        decl,
			NoallocRoot: ignore.DocHasMarker(decl.Doc, MarkNoalloc),
			DetRoot:     ignore.DocHasMarker(decl.Doc, MarkDeterministic),
			Coldpath:    ignore.DocHasMarker(decl.Doc, MarkColdpath),
		}
		sc := &scanner{
			pass:     pass,
			sum:      s,
			ignAlloc: ignAlloc,
			ignDet:   ignDet,
			allocOK:  allocOKpos(pass, decl),
		}
		sc.scanBody(decl.Body)
		for _, c := range sc.timeCalls {
			pending = append(pending, timePending{sum: s, call: c})
		}
		info.Funcs[obj] = s
	})

	resolveTimeFlow(pass, ins, pending, ignDet)
	resolve(pass, info)

	if strings.HasPrefix(pass.Pkg.Path(), modulePrefix) {
		for obj, s := range info.Funcs {
			f := &summaryFact{
				MayAlloc:     s.MayAlloc,
				AllocReason:  s.AllocReason,
				Nondet:       s.Nondet,
				NondetReason: s.NondetReason,
				Coldpath:     s.Coldpath,
			}
			pass.ExportObjectFact(obj, f)
		}
	}
	return info, nil
}

// allocOKpos returns the position of the first stalint:alloc-ok marker
// inside decl's body, or token.NoPos. Alloc sites and call edges at or
// past the marker are outside the zero-alloc checked region.
func allocOKpos(pass *analysis.Pass, decl *ast.FuncDecl) token.Pos {
	var file *ast.File
	for _, f := range pass.Files {
		if f.Pos() <= decl.Pos() && decl.End() <= f.End() {
			file = f
			break
		}
	}
	if file == nil {
		return token.NoPos
	}
	best := token.NoPos
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Pos() < decl.Body.Pos() || c.Pos() > decl.Body.End() {
				continue
			}
			t := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			if strings.HasPrefix(t, MarkAllocOK) {
				if best == token.NoPos || c.Pos() < best {
					best = c.Pos()
				}
			}
		}
	}
	return best
}

// resolve computes the transitive MayAlloc/Nondet verdicts by fixed
// point over the package-local call graph, consulting facts and the
// policy tables for edges that leave the package.
func resolve(pass *analysis.Pass, info *Info) {
	for _, s := range info.Funcs {
		if len(s.AllocSites) > 0 {
			s.MayAlloc = true
			s.AllocReason = reasonAt(pass, s.AllocSites[0])
		}
		if len(s.NondetSites) > 0 {
			s.Nondet = true
			s.NondetReason = reasonAt(pass, s.NondetSites[0])
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range info.Funcs {
			if s.Coldpath {
				// Excluded from summaries by contract: the marker's
				// justification owns the cost.
				s.MayAlloc, s.Nondet = false, false
				continue
			}
			for i := range s.Calls {
				e := &s.Calls[i]
				if !s.MayAlloc && !e.NoallocCut {
					if bad, why := edgeMayAlloc(pass, info, e); bad {
						s.MayAlloc = true
						s.AllocReason = why
						changed = true
					}
				}
				if !s.Nondet && !e.DetCut {
					if bad, why := edgeNondet(pass, info, e); bad {
						s.Nondet = true
						s.NondetReason = why
						changed = true
					}
				}
			}
		}
	}
}

// edgeMayAlloc resolves one call edge for the allocation verdict.
func edgeMayAlloc(pass *analysis.Pass, info *Info, e *CallEdge) (bool, string) {
	if e.Callee == nil {
		return true, "dynamic call (" + e.Dynamic + ") at " + posOf(pass, e.Pos) + " may allocate"
	}
	if local, ok := info.Funcs[e.Callee]; ok {
		if local.Coldpath {
			return false, ""
		}
		if local.MayAlloc {
			return true, "calls " + e.Callee.Name() + " at " + posOf(pass, e.Pos) + ", which " + clip(local.AllocReason)
		}
		return false, ""
	}
	return externMayAlloc(pass, e)
}

// edgeNondet resolves one call edge for the determinism verdict.
// Dynamic calls are assumed deterministic by policy (the function
// literals the repo passes around are scanned inside their enclosing
// functions, so their bodies are not lost).
func edgeNondet(pass *analysis.Pass, info *Info, e *CallEdge) (bool, string) {
	if e.Callee == nil {
		return false, ""
	}
	if local, ok := info.Funcs[e.Callee]; ok {
		if local.Coldpath {
			return false, ""
		}
		if local.Nondet {
			return true, "calls " + e.Callee.Name() + " at " + posOf(pass, e.Pos) + ", which " + clip(local.NondetReason)
		}
		return false, ""
	}
	return externNondet(pass, e)
}

// factFor imports the summary fact of a same-module callee.
func factFor(pass *analysis.Pass, callee *types.Func) (*summaryFact, bool) {
	if callee.Pkg() == nil || !strings.HasPrefix(callee.Pkg().Path(), modulePrefix) {
		return nil, false
	}
	var f summaryFact
	if pass.ImportObjectFact(callee, &f) {
		return &f, true
	}
	return nil, false
}

func posOf(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return p.Filename + ":" + itoa(p.Line)
}

func reasonAt(pass *analysis.Pass, s Site) string {
	return s.Reason + " at " + posOf(pass, s.Pos)
}

// clip bounds a reason chain so deep graphs stay readable.
func clip(s string) string {
	const max = 300
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
