package lint

import "go/token"

// Run executes the analyzers over the loaded packages and returns the
// surviving diagnostics: raw findings minus honored //simlint:ignore
// suppressions, plus malformed-directive and stale-suppression
// findings, sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }
	for _, a := range analyzers {
		for _, p := range pkgs {
			a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: p, report: report})
		}
	}
	return applyIgnores(fset, pkgs, analyzers, raw)
}
