package sim

import (
	"fmt"
	"strings"
)

// Mode is a bitmask of execution modes for an experiment. The default
// is ModePipeline — the full value-accurate out-of-order model. An
// experiment built with WithMode(ModeTrace|ModePipeline) runs every
// benchmark × scheme cell under both modes, tagging each Result with
// the mode that produced it.
type Mode uint8

const (
	// ModePipeline simulates on the cycle-level out-of-order pipeline:
	// value-accurate, produces timing (IPC) and memory statistics.
	ModePipeline Mode = 1 << iota
	// ModeTrace replays a recorded branch/predicate trace through the
	// predictor organization alone: one to two orders of magnitude
	// faster, produces prediction-accuracy statistics only (no cycles,
	// no cache counters). Traces are recorded once per prepared
	// benchmark by the functional emulator and cached on disk.
	ModeTrace

	modeAll = ModePipeline | ModeTrace
)

// modes returns the individual mode bits in presentation order.
func (m Mode) modes() []Mode {
	var out []Mode
	for _, b := range []Mode{ModePipeline, ModeTrace} {
		if m&b != 0 {
			out = append(out, b)
		}
	}
	return out
}

// String names the mode set ("pipeline", "trace", "pipeline|trace").
func (m Mode) String() string {
	var parts []string
	if m&ModePipeline != 0 {
		parts = append(parts, "pipeline")
	}
	if m&ModeTrace != 0 {
		parts = append(parts, "trace")
	}
	if len(parts) == 0 {
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
	return strings.Join(parts, "|")
}

// parseMode parses a mode set: "pipeline", "trace", "both", or a
// |-separated combination. Empty input is an error, not a silent
// default: every mode flag (-mode on the CLIs, -simmode on the bench
// harness) goes through here, so an explicitly empty value is named
// as such instead of being mistaken for a mode.
func parseMode(s string) (Mode, error) {
	if strings.TrimSpace(s) == "" {
		return 0, fmt.Errorf("sim: empty mode; valid modes are pipeline, trace, and both (or a |-combination)")
	}
	var m Mode
	for _, part := range strings.Split(s, "|") {
		switch strings.TrimSpace(part) {
		case "":
			return 0, fmt.Errorf("sim: empty mode element in %q; valid modes are pipeline, trace, and both", s)
		case "pipeline":
			m |= ModePipeline
		case "trace":
			m |= ModeTrace
		case "both":
			m |= modeAll
		default:
			return 0, fmt.Errorf("sim: unknown mode %q (want pipeline, trace, or both)", part)
		}
	}
	return m, nil
}

// ParseSingleMode parses a flag value that must name exactly one
// execution mode — the contract of every per-run surface (-mode on the
// CLIs, -simmode on the bench harness, ProgramRun.Mode).
func ParseSingleMode(s string) (Mode, error) {
	m, err := parseMode(s)
	if err != nil {
		return 0, err
	}
	if m != ModePipeline && m != ModeTrace {
		return 0, fmt.Errorf("sim: %q names more than one mode; want pipeline or trace", s)
	}
	return m, nil
}

// WithMode selects the execution mode(s) for an experiment. At least
// one mode bit must be set.
func WithMode(m Mode) Option {
	return func(e *Experiment) error {
		if m == 0 || m&^modeAll != 0 {
			return fmt.Errorf("sim: invalid mode %d", uint8(m))
		}
		e.mode = m
		return nil
	}
}

// WithTraceDir overrides the on-disk trace cache directory for
// ModeTrace runs (default: $PREDSIM_TRACE_DIR, else the user cache
// directory). Mostly useful for hermetic tests.
func WithTraceDir(dir string) Option {
	return func(e *Experiment) error {
		e.traceDir = dir
		return nil
	}
}

// FilterMode returns the results produced by the given mode, in the
// original order — the usual first step before tabulating a dual-mode
// experiment (Tabulate keys rows by scheme, so feed it one mode at a
// time).
func FilterMode(rs []Result, m Mode) []Result {
	var out []Result
	for _, r := range rs {
		if r.Mode&m != 0 {
			out = append(out, r)
		}
	}
	return out
}
