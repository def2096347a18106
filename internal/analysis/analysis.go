// Package analysis is firmament-vet: a suite of project-specific static
// analyzers that prove, at compile time, the three load-bearing contracts
// the test suite otherwise checks only dynamically —
//
//   - determinism: bit-stable snapshot/journal encodings and fingerprints
//     (docs/durability.md) must never iterate a Go map without sorting,
//     and must never read a wall clock or PRNG;
//   - hot-path allocation: the solver inner loops and the template hit
//     path promise 0 allocs/op in steady state (docs/solver.md,
//     docs/templates.md); the analyzers point at the construct that
//     allocates instead of leaving a bare counter regression;
//   - durability ordering: the journal-before-publish and
//     journal-before-register rules of internal/service, and the
//     one-table-lock-at-a-time rule of internal/cluster.
//
// A sixth analyzer, boundary, keeps the packages cmd/firmament-serve links
// from importing the reproduction-only ones (simulator, baselines,
// experiments, the root facade).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) so the analyzers could be rehosted on the
// upstream driver, but it is implemented entirely on the standard library:
// the build environment for this repository is hermetic (no module proxy),
// so the loader in load.go shells out to `go list -export` and type-checks
// with go/importer instead of depending on x/tools. See docs/analysis.md.
//
// # Annotations
//
// Scope is opt-in. A function joins an analyzer's scope either because its
// package is always in scope (internal/wal and internal/template are
// determinism-critical end to end) or because its doc comment carries a
// firmament annotation:
//
//	//firmament:deterministic  — detmaprange + nondetsource apply
//	//firmament:hotpath        — hotalloc applies
//	//firmament:journaled      — walorder waiver: ordering is established
//	                             by the caller or by the journal itself
//
// A finding is suppressed by a comment on the same line (or the line
// immediately above) of the form
//
//	//firmament:ignore <analyzer> <reason>
//
// The reason is mandatory: a waiver without an argument is itself a
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //firmament:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info

	ann   *annotations
	diags *[]Diagnostic
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless a matching
// //firmament:ignore comment suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.ann.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FuncHas reports whether fn's doc comment carries the given firmament
// annotation (e.g. "deterministic", "hotpath", "journaled").
func (p *Pass) FuncHas(fn *ast.FuncDecl, directive string) bool {
	return p.ann.funcHas(fn, directive)
}

// pkgPathEndsIn reports whether the package path's last element is one of
// names. Fixture packages load under synthetic "fixture/<name>" paths, so
// scope checks key on the path suffix rather than the full module path.
func (p *Pass) pkgPathEndsIn(names ...string) bool {
	path := p.PkgPath
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	for _, n := range names {
		if last == n {
			return true
		}
	}
	return false
}

// InDeterministicScope reports whether detmaprange/nondetsource apply to
// fn: its package is determinism-critical end to end (wal, template) or it
// is annotated //firmament:deterministic.
func (p *Pass) InDeterministicScope(fn *ast.FuncDecl) bool {
	if p.pkgPathEndsIn("wal", "template") {
		return true
	}
	return p.FuncHas(fn, "deterministic")
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{DetMapRange, NonDetSource, HotAlloc, LockOrder, WALOrder, Boundary}
}

// RunAnalyzers applies each analyzer to the package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ann := buildAnnotations(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.PkgPath,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			ann:      ann,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// annotations indexes a package's firmament directives: per-function
// annotations and per-line suppressions.
type annotations struct {
	funcs map[*ast.FuncDecl]map[string]bool
	// suppress maps filename → line → analyzer names ignored there ("*"
	// ignores all). A suppression on line L covers diagnostics on L and
	// L+1, so both line-end comments and a comment line above the
	// offending statement work.
	suppress map[string]map[int]map[string]bool
}

const (
	directivePrefix = "//firmament:"
	ignoreDirective = "ignore"
)

func buildAnnotations(fset *token.FileSet, files []*ast.File) *annotations {
	ann := &annotations{
		funcs:    make(map[*ast.FuncDecl]map[string]bool),
		suppress: make(map[string]map[int]map[string]bool),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				d, rest := parseDirective(c.Text)
				if d == "" || d == ignoreDirective {
					continue
				}
				set := ann.funcs[fn]
				if set == nil {
					set = make(map[string]bool)
					ann.funcs[fn] = set
				}
				set[d] = true
				_ = rest
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, rest := parseDirective(c.Text)
				if d != ignoreDirective {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// An ignore without analyzer name + reason is
					// ineffective by design: the waiver must argue its
					// case.
					continue
				}
				pos := fset.Position(c.Pos())
				lines := ann.suppress[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					ann.suppress[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				set[fields[0]] = true
			}
		}
	}
	return ann
}

// parseDirective splits "//firmament:<name> <rest>"; d is "" for
// non-directive comments.
func parseDirective(text string) (d, rest string) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", ""
	}
	body := text[len(directivePrefix):]
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		return body[:i], strings.TrimSpace(body[i:])
	}
	return body, ""
}

func (a *annotations) funcHas(fn *ast.FuncDecl, directive string) bool {
	return a.funcs[fn][directive]
}

func (a *annotations) suppressed(analyzer string, pos token.Position) bool {
	lines := a.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if set := lines[line]; set != nil && (set[analyzer] || set["*"]) {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration with a body, in file order.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}
