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
	// Name is the check's registry key: the -checks selector, the
	// diagnostic prefix and the name //simlint:ignore directives use.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Module marks a whole-build analyzer: Run is invoked once with
	// Pass.All populated instead of once per package. Module analyzers
	// need every registration site in the build (regname), so they
	// cannot run under the per-package vet protocol.
	Module bool
	// Run performs the check.
	Run func(*Pass)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("repro/sim", or the
	// testdata-relative path in analyzer tests).
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files holds the parsed non-test files, parallel to Filenames.
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
	// per-package analyzers that want context; it may be a single
	// package under the vet protocol).
	All []*Package
	// Cfg is the loaded .simlint.json configuration (never nil).
	Cfg *Config

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
	return []*Analyzer{
		Layering, Detorder, Hotalloc, Regname, Ctxflow, Seedrand,
		Keycover, Errsentinel,
	}
}

// PackageAnalyzers returns the subset of the suite that runs
// per-package — the checks available under go vet -vettool, which
// analyzes one compilation unit at a time.
func PackageAnalyzers() []*Analyzer {
	var out []*Analyzer
	for _, a := range Analyzers() {
		if !a.Module {
			out = append(out, a)
		}
	}
	return out
}

// Select resolves a comma-separated -checks list against the suite.
func Select(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	valid := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		valid = append(valid, a.Name)
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (valid: %v)", n, valid)
		}
		out = append(out, a)
	}
	return out, nil
}

// isTestFile reports whether the file is a _test.go file. The
// standalone loader never parses tests, but the vet driver hands the
// tool test units too, and the determinism and cancellation rules are
// scoped to non-test code (a test's drain loop is bounded by the test
// timeout; a test's collection order is the test's own business).
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
