package sim

import (
	"fmt"
	"strings"
)

// Mode is an experiment's execution mode. The zero value is
// ModePipeline — the full value-accurate out-of-order model. An
// experiment runs in exactly one mode; comparing the modes means
// running two experiments.
type Mode uint8

const (
	// ModePipeline simulates on the cycle-level out-of-order pipeline:
	// value-accurate, produces timing (IPC) and memory statistics.
	ModePipeline Mode = iota
	// ModeTrace replays a recorded branch/predicate trace through the
	// predictor organization alone: one to two orders of magnitude
	// faster, produces prediction-accuracy statistics only (no cycles,
	// no cache counters). Each prepared binary's trace is recorded once
	// by the functional emulator, cached on disk and held by the
	// workload for every later experiment.
	ModeTrace
)

// String names the mode ("pipeline" or "trace").
func (m Mode) String() string {
	switch m {
	case ModePipeline:
		return "pipeline"
	case ModeTrace:
		return "trace"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode parses a mode flag value: "pipeline" or "trace". Empty
// input is an error, not a silent default: every mode flag (-mode on
// the CLIs) goes through here, so an explicitly empty value is named
// as such instead of being mistaken for a mode.
func ParseMode(s string) (Mode, error) {
	switch strings.TrimSpace(s) {
	case "pipeline":
		return ModePipeline, nil
	case "trace":
		return ModeTrace, nil
	case "":
		return 0, fmt.Errorf("sim: empty mode; want pipeline or trace")
	}
	return 0, fmt.Errorf("sim: unknown mode %q (want pipeline or trace)", s)
}

// WithMode selects the experiment's execution mode (default
// ModePipeline).
func WithMode(m Mode) Option {
	return func(e *Experiment) error {
		if m != ModePipeline && m != ModeTrace {
			return fmt.Errorf("sim: invalid mode %d", uint8(m))
		}
		e.mode = m
		return nil
	}
}

// WithTraceDir overrides the on-disk trace cache directory for
// ModeTrace runs (default: $PREDSIM_TRACE_DIR, else the user cache
// directory). It is read only when the experiment acquires a trace: a
// binary whose workload already holds a trace covering the commit
// budget replays that one, wherever it came from. Mostly useful for
// hermetic tests.
func WithTraceDir(dir string) Option {
	return func(e *Experiment) error {
		e.traceDir = dir
		return nil
	}
}
