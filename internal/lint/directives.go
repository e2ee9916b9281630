package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Directive prefixes. A //simlint:ignore suppresses one check's
// diagnostics on its own line or the line directly below; a
// //simlint:hotpath line in a function's doc comment opts the function
// into the hotalloc allocation rules. The field annotation
// //simlint:nonsemantic (keycover) exempts one struct field from its
// coverage rule — with a mandatory reason, because an escape hatch
// nobody can audit is just a hole.
const (
	ignorePrefix      = "//simlint:ignore"
	hotpathBare       = "//simlint:hotpath"
	nonsemanticPrefix = "//simlint:nonsemantic"
)

// ignoreDirective is one parsed //simlint:ignore comment.
type ignoreDirective struct {
	pos    token.Pos
	file   string
	line   int
	check  string
	reason string
	used   bool
}

// parseIgnores collects every ignore directive in a package, reporting
// malformed ones (no check name, or no reason — a suppression must say
// why it is sound) through report.
func parseIgnores(fset *token.FileSet, p *Package, report func(Diagnostic)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(Diagnostic{Check: "ignore", Pos: c.Pos(),
						Message: "//simlint:ignore needs a check name and a reason"})
					continue
				}
				check := fields[0]
				// The reason is everything after the check name, taken
				// verbatim so a blank-but-present reason ("   ") is
				// distinguishable from a missing one — both are errors:
				// a suppression must say why it is sound.
				reason := strings.TrimSpace(rest[strings.Index(rest, check)+len(check):])
				if reason == "" {
					report(Diagnostic{Check: "ignore", Pos: c.Pos(),
						Message: "//simlint:ignore " + check + " needs a non-blank reason: say why the suppression is sound"})
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &ignoreDirective{
					pos: c.Pos(), file: pos.Filename, line: pos.Line,
					check: check, reason: reason,
				})
			}
		}
	}
	return out
}

// applyIgnores filters diagnostics through the package set's ignore
// directives. A directive at line L suppresses diagnostics of its
// check at line L (trailing comment) or L+1 (the statement below).
// With stale set, a directive whose check ran but matched nothing is
// itself reported — suppressions cannot outlive the violation they
// justify.
func applyIgnores(fset *token.FileSet, pkgs []*Package, ran []*Analyzer, ds []Diagnostic, stale bool) []Diagnostic {
	var malformed []Diagnostic
	var ignores []*ignoreDirective
	for _, p := range pkgs {
		ignores = append(ignores, parseIgnores(fset, p, func(d Diagnostic) {
			malformed = append(malformed, d)
		})...)
	}
	type key struct {
		file  string
		line  int
		check string
	}
	index := make(map[key]*ignoreDirective, len(ignores))
	for _, ig := range ignores {
		index[key{ig.file, ig.line, ig.check}] = ig
		index[key{ig.file, ig.line + 1, ig.check}] = ig
	}
	var kept []Diagnostic
	for _, d := range ds {
		pos := fset.Position(d.Pos)
		if ig := index[key{pos.Filename, pos.Line, d.Check}]; ig != nil {
			ig.used = true
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, malformed...)
	if stale {
		ranSet := make(map[string]bool, len(ran))
		for _, a := range ran {
			ranSet[a.Name] = true
		}
		for _, ig := range ignores {
			switch {
			case ig.used:
			case !ranSet[ig.check]:
				// The suppressed check did not run (e.g. a module-level
				// check under the per-package vet protocol, or a -checks
				// subset): staleness cannot be judged.
			default:
				kept = append(kept, Diagnostic{Check: "ignore", Pos: ig.pos,
					Message: "stale //simlint:ignore " + ig.check + " (reason: " + strconv.Quote(ig.reason) + "): no " + ig.check +
						" diagnostic on this or the next line; remove the suppression"})
			}
		}
	}
	sortDiagnostics(fset, kept)
	return kept
}

// fieldAnnotation looks for a field-level directive attached to the
// declaration at pos: a comment with the given prefix (followed by a
// space or end of comment) on the declaration's own line or the line
// directly above, in the file containing pos. It returns the
// directive's reason text and whether a directive was found at all —
// callers report a found-but-blank reason themselves, because the
// escape hatch is reason-mandatory.
func fieldAnnotation(fset *token.FileSet, files []*ast.File, pos token.Pos, prefix string) (reason string, found bool) {
	target := fset.Position(pos)
	for _, f := range files {
		if fset.Position(f.Pos()).Filename != target.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, prefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				line := fset.Position(c.Pos()).Line
				if line == target.Line || line == target.Line-1 {
					return strings.TrimSpace(rest), true
				}
			}
		}
	}
	return "", false
}

// hotpathFuncs returns the package's functions whose doc comment
// carries a //simlint:hotpath line.
func hotpathFuncs(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == hotpathBare {
					out = append(out, fd)
					break
				}
			}
		}
	}
	return out
}
