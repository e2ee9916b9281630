package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestRegname(t *testing.T) {
	runCorpus(t, "regname", one(lint.Regname))
}
