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
		{" trace ", ModeTrace, true},
		// An experiment runs in one mode: mode sets are not modes.
		{"both", 0, false},
		{"pipeline|trace", 0, false},
		{"warp", 0, false},
		{"", 0, false},
		{"   ", 0, false},
		{"pipeline|", 0, false},
		{"|trace", 0, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
		if err != nil && (!strings.Contains(err.Error(), "pipeline") || !strings.Contains(err.Error(), "trace")) {
			t.Errorf("ParseMode(%q) error should name the valid modes, got %q", c.in, err)
		}
	}
	for m, want := range map[Mode]string{ModePipeline: "pipeline", ModeTrace: "trace", 2: "mode(2)"} {
		if s := m.String(); s != want {
			t.Errorf("Mode(%d).String() = %q, want %q", uint8(m), s, want)
		}
	}
	if _, err := New(WithSchemes("conventional"), WithMode(2)); err == nil {
		t.Error("WithMode(2) should fail validation")
	}
}

// TestParseModeEmptyNamesValidModes pins the contract shared by every
// mode flag (cmd/predsim -mode, cmd/experiments -mode, cmd/sweep
// -mode): an empty value is rejected with an
// error that names the valid modes.
func TestParseModeEmptyNamesValidModes(t *testing.T) {
	for _, in := range []string{"", "  "} {
		_, err := ParseMode(in)
		if err == nil {
			t.Fatalf("ParseMode(%q) should fail", in)
		}
		msg := err.Error()
		if !strings.Contains(msg, "pipeline") || !strings.Contains(msg, "trace") {
			t.Errorf("ParseMode(%q) error should name the valid modes, got %q", in, msg)
		}
	}
}
