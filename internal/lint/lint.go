// Package lint is the project's static-analysis suite: a set of
// analyzers that mechanically enforce the simulator's determinism,
// layering and hot-path invariants, plus the driver machinery that
// loads packages, applies //simlint: directives and verifies that
// every suppression is still load-bearing.
//
// The analyzer surface deliberately mirrors golang.org/x/tools
// go/analysis (Analyzer, Pass, Diagnostic) so the suite can migrate to
// the upstream framework wholesale if the dependency ever becomes
// available; until then everything here is built on the standard
// library alone (go/parser + go/types with a source importer for the
// standard library), which keeps the tool runnable in hermetic builds
// with an empty module cache.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run receives a fully type-checked
// package (or, for Module analyzers, the whole build) and reports
// diagnostics through the pass.
type Analyzer struct {
	// Name is the check's registry key: the diagnostic prefix and the
	// name //simlint:ignore directives use.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Module marks a whole-build analyzer: Run is invoked once with
	// Pass.All populated instead of once per package, because it needs
	// every registration site in the build at once (regname).
	Module bool
	// Run performs the check.
	Run func(*Pass)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("repro/sim", or the
	// testdata-relative path in analyzer tests); an external test
	// package's path ends in "_test".
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files holds the parsed files, _test.go files of the same package
	// included, parallel to Filenames.
	Files []*ast.File
	// Filenames holds the absolute file paths.
	Filenames []string
	// Types is the type-checked package object.
	Types *types.Package
	// Info is the type-checker's expression/object tables.
	Info *types.Info
}

// Pass carries one analyzer invocation's inputs and its report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis (nil for Module analyzers).
	Pkg *Package
	// All is every package of the build, for Module analyzers (and for
	// per-package analyzers that want context).
	All []*Package

	report func(Diagnostic)
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Check: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of an expression in the current package, or
// nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Diagnostic is one finding: which check, where, and why.
type Diagnostic struct {
	Check   string
	Pos     token.Pos
	Message string
}

// Position resolves a diagnostic's position against a file set.
func (d Diagnostic) Position(fset *token.FileSet) token.Position { return fset.Position(d.Pos) }

// String renders "file:line:col: check: message" against fset.
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: %s: %s", d.Position(fset), d.Check, d.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Layering, Detorder, Regname, Seedrand}
}

// isTestFile reports whether the file is a _test.go file. The
// determinism rule is scoped to non-test code (a
// test's collection order is the test's own business), and regname
// skips tests because they pass unregistered names on purpose to
// exercise the lookup errors.
func (p *Pass) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// sortDiagnostics orders findings by file, line, column, check.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Check < ds[j].Check
	})
}
