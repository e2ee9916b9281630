package stats

import (
	"context"
	"fmt"

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
	tr  *trace.Trace
	art *Artifact
	s   scratch
}

// NewSession wraps a recorded trace for repeated replay.
func NewSession(tr *trace.Trace) *Session {
	return &Session{tr: tr}
}

// Trace returns the session's recorded trace.
func (s *Session) Trace() *trace.Trace { return s.tr }

// SetArtifact attaches a materialized frontend artifact (artifact.go)
// to the session; nil detaches. Subsequent replays whose commit budget
// the artifact covers are fed from its note stream instead of the live
// frontend — bit-identical results, annotate pass skipped. Replays the
// artifact does not cover silently fall back to the live frontend. An
// artifact recorded from a different program is rejected with
// ErrArtifactMismatch.
func (s *Session) SetArtifact(a *Artifact) error {
	if a != nil && a.ProgHash != s.tr.ProgHash {
		return fmt.Errorf("%w: artifact program hash %016x, trace %016x", ErrArtifactMismatch, a.ProgHash, s.tr.ProgHash)
	}
	s.art = a
	return nil
}

// Artifact returns the attached frontend artifact, or nil.
func (s *Session) Artifact() *Artifact { return s.art }

// artifactFor returns the attached artifact when it covers a replay of
// the given commit budget, else nil (live-frontend fallback). Besides
// the artifact's own coverage gate, notes extending at least to the
// trace's recorded end cover any replay of that trace — the trace
// cannot admit past its own recording.
func (s *Session) artifactFor(commits uint64) *Artifact {
	a := s.art
	if a == nil {
		return nil
	}
	if a.Covers(commits) || a.Steps >= s.tr.Steps {
		return a
	}
	return nil
}

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
	return s.s.replayAll(ctx, cfgs, s.tr, s.artifactFor(commits), commits)
}
