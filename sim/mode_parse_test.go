package sim

import (
	"strings"
	"testing"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"pipeline", ModePipeline, true},
		{"trace", ModeTrace, true},
		{"both", ModePipeline | ModeTrace, true},
		{"pipeline|trace", ModePipeline | ModeTrace, true},
		{"warp", 0, false},
		{"", 0, false},
		{"   ", 0, false},
		{"pipeline|", 0, false},
		{"|trace", 0, false},
	}
	for _, c := range cases {
		got, err := parseMode(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("parseMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
		// The exported parser takes exactly one mode.
		single := c.want == ModePipeline || c.want == ModeTrace
		if got, err := ParseSingleMode(c.in); single != (err == nil) || (single && got != c.want) {
			t.Errorf("ParseSingleMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, single)
		}
	}
	if s := (ModePipeline | ModeTrace).String(); s != "pipeline|trace" {
		t.Errorf("String() = %q", s)
	}
	if err := func() error {
		_, err := New(WithSchemes("conventional"), WithMode(0))
		return err
	}(); err == nil {
		t.Error("WithMode(0) should fail validation")
	}
}

// TestParseModeEmptyNamesValidModes pins the contract shared by every
// mode flag (cmd/predsim -mode, cmd/experiments -mode, cmd/sweep
// -mode, the harness -simmode): an empty value is rejected with an
// error that names the valid modes, in both the multi- and
// single-mode parsers.
func TestParseModeEmptyNamesValidModes(t *testing.T) {
	for _, in := range []string{"", "  "} {
		for name, parse := range map[string]func(string) (Mode, error){
			"parseMode":       parseMode,
			"ParseSingleMode": ParseSingleMode,
		} {
			_, err := parse(in)
			if err == nil {
				t.Fatalf("%s(%q) should fail", name, in)
			}
			msg := err.Error()
			if !strings.Contains(msg, "pipeline") || !strings.Contains(msg, "trace") {
				t.Errorf("%s(%q) error should name the valid modes, got %q", name, in, msg)
			}
		}
	}
}
