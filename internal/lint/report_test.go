package lint_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestWriteJSONShape checks the machine-readable report against the
// keycover corpus: root-relative slash paths, 1-based positions, sort
// order, the check name, and the suppressible marker (false only for
// directive-hygiene findings, which a suppression must not be able to
// silence).
func TestWriteJSONShape(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "keycover"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "")
	if err != nil {
		t.Fatal(err)
	}
	ds := lint.Run(lint.Fset(), pkgs, one(lint.Keycover), nil, lint.RunOptions{Stale: true})
	if len(ds) == 0 {
		t.Fatal("corpus produced no diagnostics to report")
	}

	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, lint.Fset(), root, ds); err != nil {
		t.Fatal(err)
	}
	var got []lint.JSONDiagnostic
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != len(ds) {
		t.Fatalf("report has %d entries, want %d", len(got), len(ds))
	}
	for i, d := range got {
		if i > 0 {
			p := got[i-1]
			if d.File < p.File || d.File == p.File && (d.Line < p.Line || d.Line == p.Line && (d.Col < p.Col || d.Col == p.Col && d.Check < p.Check)) {
				t.Errorf("entry %d (%s:%d:%d %s) sorts before its predecessor", i, d.File, d.Line, d.Col, d.Check)
			}
		}
		if filepath.IsAbs(d.File) || strings.Contains(d.File, `\`) {
			t.Errorf("file %q is not a root-relative slash path", d.File)
		}
		if d.Line <= 0 || d.Col <= 0 {
			t.Errorf("%s: non-positive position %d:%d", d.File, d.Line, d.Col)
		}
		if d.Check == "" || d.Message == "" {
			t.Errorf("%s:%d: empty check or message", d.File, d.Line)
		}
		if d.Suppressible != (d.Check != "ignore") {
			t.Errorf("%s:%d: check %s suppressible=%v", d.File, d.Line, d.Check, d.Suppressible)
		}
	}
}

// TestWriteJSONStable: two renderings of the same run are
// byte-identical, and two independent runs of the same corpus render
// identically too — CI diffs and caches the artifact, so any
// nondeterminism (map order, absolute paths) would churn it.
func TestWriteJSONStable(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "keycover"))
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		pkgs, err := lint.Load(root, "")
		if err != nil {
			t.Fatal(err)
		}
		ds := lint.Run(lint.Fset(), pkgs, one(lint.Keycover), nil, lint.RunOptions{Stale: true})
		var buf bytes.Buffer
		if err := lint.WriteJSON(&buf, lint.Fset(), root, ds); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("report not stable across runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestWriteJSONEmpty: a clean run renders an empty array, never null —
// consumers index the report without special-casing.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, lint.Fset(), "", nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty report renders %q, want []", got)
	}
}
