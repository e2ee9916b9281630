package lint

import (
	"go/token"
	"strconv"
	"strings"
)

// ignorePrefix starts the suite's one escape hatch: a //simlint:ignore
// suppresses one check's diagnostics on its own line or the line
// directly below, with a mandatory reason, because an escape hatch
// nobody can audit is just a hole.
const ignorePrefix = "//simlint:ignore"

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
// check at line L (trailing comment) or L+1 (the statement below). A
// directive whose check ran but matched nothing is itself reported —
// suppressions cannot outlive the violation they justify.
func applyIgnores(fset *token.FileSet, pkgs []*Package, ran []*Analyzer, ds []Diagnostic) []Diagnostic {
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
	ranSet := make(map[string]bool, len(ran))
	for _, a := range ran {
		ranSet[a.Name] = true
	}
	for _, ig := range ignores {
		switch {
		case ig.used:
		case !ranSet[ig.check]:
			// The suppressed check did not run (an analyzer test runs
			// one check at a time): staleness cannot be judged.
		default:
			kept = append(kept, Diagnostic{Check: "ignore", Pos: ig.pos,
				Message: "stale //simlint:ignore " + ig.check + " (reason: " + strconv.Quote(ig.reason) + "): no " + ig.check +
					" diagnostic on this or the next line; remove the suppression"})
		}
	}
	sortDiagnostics(fset, kept)
	return kept
}
