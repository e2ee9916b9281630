package lint_test

// The test harness mirrors golang.org/x/tools/go/analysis/analysistest:
// each analyzer owns a corpus under testdata/src/<name>/ laid out as a
// GOPATH-style tree (import paths are directory paths relative to the
// corpus root), and every expected diagnostic is declared in the corpus
// itself with a trailing
//
//	// want "regexp"
//
// comment on the offending line. A finding on a line that already ends
// in a line comment (a //simlint:ignore directive, say) takes a
// /* want "regexp" */ block comment in front of it instead. A run fails
// on any unmatched want and any unexpected diagnostic, so the corpus is
// an exact, executable specification of each analyzer's behaviour.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the quoted regexps of a want comment — double- or
// backquoted, as in upstream analysistest.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// runCorpus loads testdata/src/<dir>, runs the analyzers and diffs
// the diagnostics against the corpus's want comments.
func runCorpus(t *testing.T, dir string, analyzers []*lint.Analyzer) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "")
	if err != nil {
		t.Fatalf("load corpus %s: %v", dir, err)
	}
	wants := collectWants(t, root)
	ds := lint.Run(lint.Fset(), pkgs, analyzers)
	for _, d := range ds {
		pos := d.Position(lint.Fset())
		if w := matchWant(wants, pos.Filename, pos.Line, d.Message); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d.String(lint.Fset()))
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// collectWants parses every want comment in the corpus. It reads the
// .go files from disk itself rather than from the loaded packages, so
// a file the loader drops (a _test.go file, say) leaves its wants
// unmatched instead of silently untested.
func collectWants(t *testing.T, root string) []*want {
	t.Helper()
	fset := token.NewFileSet()
	var out []*want
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if block, ok := strings.CutPrefix(text, "/*"); ok {
					text = strings.TrimSuffix(block, "*/")
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				groups := wantRe.FindAllStringSubmatch(rest, -1)
				if len(groups) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, g := range groups {
					pat := g[1]
					if pat == "" {
						pat = g[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &want{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// matchWant finds an unmatched want for a diagnostic at file:line.
func matchWant(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.pattern.MatchString(msg) {
			return w
		}
	}
	return nil
}

// one is the common case: a single analyzer (stale checking is always
// on, so corpora also prove their ignores are load-bearing).
func one(a *lint.Analyzer) []*lint.Analyzer { return []*lint.Analyzer{a} }
