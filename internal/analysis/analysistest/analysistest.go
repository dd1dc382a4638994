// Package analysistest runs a go/analysis analyzer over small fixture
// packages and checks its diagnostics against `// want` comments,
// mirroring the golang.org/x/tools/go/analysis/analysistest API.
//
// The upstream analysistest depends on go/packages (not vendored with
// the toolchain, and this module builds offline), so this harness
// loads fixtures itself: packages live in GOPATH-style layout under
// <testdata>/src/<importpath>/, are parsed with go/parser and
// type-checked with go/types; imports resolve first against the
// fixture tree, then against the standard library via the source
// importer. That covers everything a stalint fixture needs — stdlib
// imports (sync, fmt) and sibling fixture packages (a fake obs or
// logic package) — without a network or an export-data cache.
//
// Expectations use the upstream syntax, one or more quoted or
// backquoted regular expressions per comment:
//
//	x := a == b // want `floating-point equality`
//
// Every diagnostic must match a want comment on its exact line, and
// every want comment must be consumed: unexpected and missing
// diagnostics both fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory (go test runs with the package directory as cwd).
func TestData() string {
	d, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return d
}

// Run loads each fixture package under <testdata>/src and applies the
// analyzer, comparing diagnostics to // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(testdata, "src"))
	facts := newFactStore()
	for _, path := range pkgpaths {
		pkg, err := l.load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		diags, err := runAnalyzer(a, l, pkg, facts)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		checkWants(t, l.fset, pkg, diags)
	}
}

// factStore holds object and package facts exported while analyzing
// fixture packages, so interprocedural analyzers (callgraph summaries)
// see dependency facts exactly as under the go vet driver.
type factStore struct {
	obj      map[types.Object][]analysis.Fact
	pkg      map[*types.Package][]analysis.Fact
	analyzed map[string]bool // fixture package paths already analyzed for facts
}

func newFactStore() *factStore {
	return &factStore{
		obj:      map[types.Object][]analysis.Fact{},
		pkg:      map[*types.Package][]analysis.Fact{},
		analyzed: map[string]bool{},
	}
}

// importFact copies a stored fact of dst's concrete type into dst.
func importFact(stored []analysis.Fact, dst analysis.Fact) bool {
	for _, f := range stored {
		if reflect.TypeOf(f) == reflect.TypeOf(dst) {
			reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}

// pkgInfo is one loaded fixture package.
type pkgInfo struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves import paths against the fixture tree, falling back
// to the standard library source importer.
type loader struct {
	srcdir string
	fset   *token.FileSet
	pkgs   map[string]*pkgInfo
	std    types.Importer
}

func newLoader(srcdir string) *loader {
	l := &loader{
		srcdir: srcdir,
		fset:   token.NewFileSet(),
		pkgs:   map[string]*pkgInfo{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// Import implements types.Importer over the fixture tree + stdlib.
func (l *loader) Import(path string) (*types.Package, error) {
	if fi, err := os.Stat(filepath.Join(l.srcdir, path)); err == nil && fi.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the fixture package at srcdir/path.
func (l *loader) load(path string) (*pkgInfo, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcdir, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Instances:    map[*ast.Ident]types.Instance{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		Scopes:       map[ast.Node]*types.Scope{},
		FileVersions: map[*ast.File]string{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkgInfo{path: path, files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

// runAnalyzer executes a (and, depth-first, its Requires) over pkg,
// returning a's diagnostics. Fixture dependency packages are analyzed
// first (diagnostics discarded) so their exported facts are available,
// mirroring the go vet driver's bottom-up package order.
func runAnalyzer(a *analysis.Analyzer, l *loader, pkg *pkgInfo, facts *factStore) ([]analysis.Diagnostic, error) {
	for _, imp := range pkg.pkg.Imports() {
		dep, ok := l.pkgs[imp.Path()]
		if !ok || facts.analyzed[imp.Path()] {
			continue
		}
		facts.analyzed[imp.Path()] = true
		if _, err := runAnalyzer(a, l, dep, facts); err != nil {
			return nil, fmt.Errorf("analyzing dependency %s: %w", imp.Path(), err)
		}
	}
	var diags []analysis.Diagnostic
	results := map[*analysis.Analyzer]interface{}{}
	var run func(an *analysis.Analyzer) error
	run = func(an *analysis.Analyzer) error {
		if _, done := results[an]; done {
			return nil
		}
		for _, req := range an.Requires {
			if err := run(req); err != nil {
				return err
			}
		}
		pass := &analysis.Pass{
			Analyzer:   an,
			Fset:       l.fset,
			Files:      pkg.files,
			Pkg:        pkg.pkg,
			TypesInfo:  pkg.info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   results,
			Report: func(d analysis.Diagnostic) {
				if an == a {
					diags = append(diags, d)
				}
			},
			ReadFile: os.ReadFile,
			ImportObjectFact: func(obj types.Object, f analysis.Fact) bool {
				return importFact(facts.obj[obj], f)
			},
			ExportObjectFact: func(obj types.Object, f analysis.Fact) {
				facts.obj[obj] = append(facts.obj[obj], f)
			},
			ImportPackageFact: func(p *types.Package, f analysis.Fact) bool {
				return importFact(facts.pkg[p], f)
			},
			ExportPackageFact: func(f analysis.Fact) {
				facts.pkg[pkg.pkg] = append(facts.pkg[pkg.pkg], f)
			},
			AllObjectFacts:  func() []analysis.ObjectFact { return nil },
			AllPackageFacts: func() []analysis.PackageFact { return nil },
		}
		res, err := an.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %w", an.Name, err)
		}
		results[an] = res
		return nil
	}
	if err := run(a); err != nil {
		return nil, err
	}
	return diags, nil
}

// expectation is one regex from a want comment, with a consumed flag.
type expectation struct {
	rx   *regexp.Regexp
	used bool
}

// checkWants cross-checks diagnostics against want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkg *pkgInfo, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{} // "file:line" → expectations
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rxs, err := parseWant(c.Text)
				if err != nil {
					t.Errorf("%s: %v", fset.Position(c.Pos()), err)
					continue
				}
				if len(rxs) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, rx := range rxs {
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.rx.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.rx)
			}
		}
	}
}

// parseWant extracts the regexes from a `// want "rx" `+"`rx`"+` ...`
// comment; non-want comments yield nil.
func parseWant(text string) ([]*regexp.Regexp, error) {
	body, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		return nil, nil
	}
	var rxs []*regexp.Regexp
	rest := strings.TrimSpace(body)
	for rest != "" {
		var raw string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated ` in want comment")
			}
			raw = rest[1 : 1+end]
			rest = rest[2+end:]
		case '"':
			var err error
			end := 1
			for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
				end++
			}
			if end == len(rest) {
				return nil, fmt.Errorf("unterminated \" in want comment")
			}
			raw, err = strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %s: %w", rest[:end+1], err)
			}
			rest = rest[end+1:]
		default:
			return nil, fmt.Errorf("want comment: expected quoted regexp, got %q", rest)
		}
		rx, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %w", raw, err)
		}
		rxs = append(rxs, rx)
		rest = strings.TrimSpace(rest)
	}
	return rxs, nil
}
