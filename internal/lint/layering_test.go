package lint_test

import (
	"testing"

	"repro/internal/lint"
)

func TestLayering(t *testing.T) {
	cfg := &lint.Config{Layering: lint.LayeringConfig{Allow: []lint.LayeringAllow{{
		From:   "cmd/blessed",
		To:     "internal/...",
		Reason: "corpus: deliberate engine-level tool",
	}}}}
	runCorpus(t, "layering", one(lint.Layering), cfg)
}

func TestLayeringAllows(t *testing.T) {
	c := lint.LayeringConfig{Allow: []lint.LayeringAllow{
		{From: "cmd/a", To: "internal/...", Reason: "r"},
		{From: "cmd/b", To: "internal/core", Reason: "r"},
	}}
	cases := []struct {
		from, to string
		want     bool
	}{
		{"cmd/a", "internal/core", true},
		{"cmd/a", "internal/core/deep", true},
		{"cmd/a", "internals", false},
		{"cmd/b", "internal/core", true},
		{"cmd/b", "internal/other", false},
		{"cmd/c", "internal/core", false},
	}
	for _, tc := range cases {
		if got := c.Allows(tc.from, tc.to); got != tc.want {
			t.Errorf("Allows(%q, %q) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}
