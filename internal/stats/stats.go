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
// budget (0 = run to halt) on a new machine.
func Simulate(cfg config.Config, p *program.Program, commits uint64) (pipeline.Stats, error) {
	pl, err := SimulateContext(context.Background(), new(pipeline.Pipeline), cfg, p, commits)
	if pl != nil {
		return pl.Stats, err
	}
	return pipeline.Stats{}, err
}

// SimulateContext resets the machine m for one program under one
// configuration (pipeline.Pipeline.Reset, which reuses m's storage; a
// zero Pipeline is an empty machine) and runs it in commit-budget
// slices, checking ctx between slices so callers can cancel a long
// simulation promptly (not just between runs). It returns m, which
// carries the statistics accumulated so far even when the context was
// cancelled mid-run, or nil when the configuration was rejected
// outright.
func SimulateContext(ctx context.Context, m *pipeline.Pipeline, cfg config.Config, p *program.Program, commits uint64) (*pipeline.Pipeline, error) {
	if err := m.Reset(cfg, p); err != nil {
		return nil, err
	}
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		next := m.Stats.Committed + simChunk
		if commits > 0 && next > commits {
			next = commits
		}
		if err := m.Run(next); err != nil {
			return m, err
		}
		if commits > 0 && m.Stats.Committed >= commits {
			break
		}
	}
	return m, nil
}
