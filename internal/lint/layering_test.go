package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestLayering runs the layering corpus: each forbidden edge is
// reported, a suppressed one (cmd/blessed) is not, and a suppression
// whose import is gone (cmd/gone) is reported stale.
func TestLayering(t *testing.T) {
	runCorpus(t, "layering", one(lint.Layering))
}
