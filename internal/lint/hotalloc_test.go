package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestHotalloc(t *testing.T) {
	// Stale on: the corpus's cold-path ignore must be load-bearing.
	runCorpus(t, "hotalloc", one(lint.Hotalloc), nil)
}
