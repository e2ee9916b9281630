package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestIgnoreDirectives drives the suppression machinery end to end on
// the ignore corpus: a used ignore silences its diagnostic, a stale one
// is itself a finding, and malformed ones are findings too.
func TestIgnoreDirectives(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "")
	if err != nil {
		t.Fatal(err)
	}
	ds := lint.Run(lint.Fset(), pkgs, one(lint.Seedrand))

	var msgs []string
	for _, d := range ds {
		msgs = append(msgs, d.String(lint.Fset()))
	}
	joined := strings.Join(msgs, "\n")

	// The used suppression must have eaten its seedrand diagnostic.
	if strings.Contains(joined, "used suppression") || countCheck(ds, "seedrand") != 0 {
		t.Errorf("used //simlint:ignore did not suppress its diagnostic:\n%s", joined)
	}
	wantFragments := []string{
		// The stale audit names the suppressed check and quotes the
		// suppression's reason, so the finding is self-explanatory.
		`stale //simlint:ignore seedrand (reason: "nothing below actually violates")`,
		"needs a non-blank reason",
		"needs a check name and a reason",
	}
	for _, frag := range wantFragments {
		if !strings.Contains(joined, frag) {
			t.Errorf("missing expected diagnostic containing %q:\n%s", frag, joined)
		}
	}
	// 3 = stale + missing-reason + missing-everything. (The
	// whitespace-only-reason case is synthesized in
	// directives_internal_test.go — gofmt would strip it from a corpus
	// file.)
	if got := countCheck(ds, "ignore"); got != 3 {
		t.Errorf("got %d ignore-check diagnostics, want 3:\n%s", got, joined)
	}
}

// TestStaleSkippedWhenCheckDidNotRun: an ignore for a check that did
// not run cannot be judged stale (an analyzer test runs one check at a
// time).
func TestStaleSkippedWhenCheckDidNotRun(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "")
	if err != nil {
		t.Fatal(err)
	}
	// Detorder runs, seedrand does not: the stale seedrand ignore must
	// stay quiet, while the malformed directives still surface (their
	// shape is wrong regardless of which checks run).
	ds := lint.Run(lint.Fset(), pkgs, one(lint.Detorder))
	for _, d := range ds {
		if strings.Contains(d.Message, "stale") {
			t.Errorf("stale verdict for a check that did not run: %s", d.String(lint.Fset()))
		}
	}
	if got := countCheck(ds, "ignore"); got != 2 {
		t.Errorf("got %d ignore-check diagnostics, want 2 (the malformed pair)", got)
	}
}

func countCheck(ds []lint.Diagnostic, check string) int {
	n := 0
	for _, d := range ds {
		if d.Check == check {
			n++
		}
	}
	return n
}
