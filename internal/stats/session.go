package stats

import (
	"context"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Session replays one recorded trace under many configurations — the
// unit of reuse behind the runner and the configuration sweeps, where a
// benchmark's trace is recorded (or loaded) once and then replayed for
// every sweep point × scheme. Predictor tables are rebuilt per run
// (their geometry is part of the configuration under test), but the
// session keeps the shared cursor's decode buffers across runs, so
// steady-state replay does not re-allocate the batch; the engines' own
// in-flight queues are fixed-size rings and never allocate.
//
// A Session is not safe for concurrent use; give each worker its own.
type Session struct {
	tr *trace.Trace
	s  scratch
}

// NewSession wraps a recorded trace for repeated replay.
func NewSession(tr *trace.Trace) *Session {
	return &Session{tr: tr}
}

// Trace returns the session's recorded trace.
func (s *Session) Trace() *trace.Trace { return s.tr }

// Replay runs the trace through one predictor organization for a
// commit budget (0 = the whole trace), honoring ctx like
// ReplayContext.
func (s *Session) Replay(ctx context.Context, cfg config.Config, commits uint64) (pipeline.Stats, error) {
	sts, err := s.ReplayAll(ctx, []config.Config{cfg}, commits)
	if len(sts) != 1 {
		return pipeline.Stats{}, err
	}
	return sts[0], err
}

// ReplayAll runs the trace through N predictor organizations in a
// single pass — the event stream is decoded and the scheme-independent
// frontend computed once, however many configurations consume it. The
// returned slice is parallel to cfgs and each entry is bit-identical to
// an independent Replay of that configuration (see the package-level
// ReplayAll).
func (s *Session) ReplayAll(ctx context.Context, cfgs []config.Config, commits uint64) ([]pipeline.Stats, error) {
	return s.s.replayAll(ctx, cfgs, s.tr, commits)
}
