package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestKeycover(t *testing.T) {
	// Stale on: the corpus's retry-bound ignore must be load-bearing.
	runCorpus(t, "keycover", one(lint.Keycover), nil)
}
