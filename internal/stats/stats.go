// Package stats runs the simulator's two engines behind the public
// repro/sim façade: the cycle-level pipeline, one simulation at a time
// under a context (Simulate, SimulateContext), and the trace replay
// engine, which drives the predictor organizations from a recorded
// branch/predicate trace (Replay, ReplayAll). Preparing workloads and
// folding results into the paper's figures live in repro/sim.
//
// External consumers (cmd/, examples/, the benchmark/ module)
// should not import this package directly; they drive everything
// through repro/sim.
package stats

import (
	"context"

	"repro/internal/config"
	"repro/internal/pipeline"
	"repro/internal/program"
)

// simChunk is the commit-budget slice between context checks in
// SimulateContext: small enough that cancellation lands within
// milliseconds, large enough that the check never shows up in a
// profile.
const simChunk = 16384

// Simulate runs one program under one configuration for a commit
// budget (0 = run to halt).
func Simulate(cfg config.Config, p *program.Program, commits uint64) (pipeline.Stats, error) {
	pl, err := SimulateContext(context.Background(), cfg, p, commits)
	if pl != nil {
		return pl.Stats, err
	}
	return pipeline.Stats{}, err
}

// SimulateContext runs one program under one configuration in
// commit-budget slices, checking ctx between slices so callers can
// cancel a long simulation promptly (not just between runs). The
// returned pipeline carries the statistics accumulated so far even
// when the context was cancelled mid-run; it is nil only when the
// configuration was rejected outright.
func SimulateContext(ctx context.Context, cfg config.Config, p *program.Program, commits uint64) (*pipeline.Pipeline, error) {
	pl, err := pipeline.New(cfg, p)
	if err != nil {
		return nil, err
	}
	for !pl.Halted() {
		if err := ctx.Err(); err != nil {
			return pl, err
		}
		next := pl.Stats.Committed + simChunk
		if commits > 0 && next > commits {
			next = commits
		}
		if err := pl.Run(next); err != nil {
			return pl, err
		}
		if commits > 0 && pl.Stats.Committed >= commits {
			break
		}
	}
	return pl, nil
}
