package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestDetorder(t *testing.T) {
	runCorpus(t, "detorder", one(lint.Detorder))
}
