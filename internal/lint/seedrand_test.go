package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestSeedrand(t *testing.T) {
	runCorpus(t, "seedrand", one(lint.Seedrand))
}
