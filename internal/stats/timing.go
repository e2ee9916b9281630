package stats

import (
	"context"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Timings is the phase breakdown of one single-pass replay: where the
// wall time went between the three stages of the shared-cursor loop.
// EngineNS is parallel to the replayed configurations. All values are
// nanoseconds on whatever clock the caller injected.
//
// The breakdown is sampled once per decoded batch (batchEvents events),
// so enabling it costs 2+N clock reads per ~1024 events — measured
// under 2% on the 3-scheme vpr replay (see EXPERIMENTS.md) — and
// nothing at all when replay runs untimed.
type Timings struct {
	DecodeNS   int64   // cursor batch decode
	FrontendNS int64   // budget admission + shared frontend annotate
	EngineNS   []int64 // per-configuration engine fan-out
	Batches    int64   // decoded batches (timing sample count)
}

// ReplayAllTimed is ReplayAll with a per-phase timing breakdown
// sampled on the injected clock (monotonic nanoseconds; tests inject
// fakes). The statistics are bit-identical to the untimed path — the
// clock reads sit between phases, never inside them.
func ReplayAllTimed(ctx context.Context, cfgs []config.Config, tr *trace.Trace, commits uint64, now func() int64) ([]pipeline.Stats, *Timings, error) {
	var s scratch
	return s.replayAllTimed(ctx, cfgs, tr, nil, commits, now)
}

// ReplayAllTimed is the Session form of the package-level
// ReplayAllTimed, reusing the session's decode buffers. When the
// session carries a covering frontend artifact the timed replay is fed
// from it, with note decode attributed to the frontend phase.
func (s *Session) ReplayAllTimed(ctx context.Context, cfgs []config.Config, commits uint64, now func() int64) ([]pipeline.Stats, *Timings, error) {
	return s.s.replayAllTimed(ctx, cfgs, s.tr, s.artifactFor(commits), commits, now)
}

func (s *scratch) replayAllTimed(ctx context.Context, cfgs []config.Config, tr *trace.Trace, art *Artifact, commits uint64, now func() int64) ([]pipeline.Stats, *Timings, error) {
	tm := &Timings{EngineNS: make([]int64, len(cfgs))}
	sts, err := s.replay(ctx, cfgs, tr, art, commits, tm, now)
	return sts, tm, err
}
