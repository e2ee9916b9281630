package stats

import (
	"context"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/trace"
)

// The trace-replay equivalence oracle: every scheme replayed from a
// recorded trace must reproduce the full pipeline's prediction
// statistics for the same benchmark and commit budget, within the
// documented fidelity contract (DESIGN.md "Execution modes"):
//
//   - the committed stream itself is exact, so committed-instruction,
//     branch and compare counts match to the commit-width overshoot;
//   - commit-order predictor state is exact, so the shadow
//     conventional predictor (trained and scored at commit in both
//     engines) must agree almost perfectly;
//   - fetch-time effects (training delay, speculative-history repair,
//     early-resolution timing) are modeled, not simulated, so
//     misprediction rates carry a small modeling error bounded here.
const (
	countSlack     = 8    // commit-width overshoot on absolute counts
	convRateTolPP  = 0.4  // conventional: near-exact commit-order replication
	predRateTolPP  = 2.0  // predicate scheme: timing-model residual
	peppaRateTolPP = 4.0  // PEP-PA: out-of-order selector pollution is unmodeled
	earlyRelTol    = 0.15 // early-resolved classification, relative
	predMisRelTol  = 0.25 // predicate mispredict counts, relative
	shadowCountTol = 8    // shadow predictor is exact modulo stream length
	equivCommits   = 60000
	equivProfile   = 150000
)

var equivBenchmarks = []string{"gzip", "vpr", "twolf", "vortex", "swim", "mesa"}

func prepareEquiv(t *testing.T) []binaries {
	t.Helper()
	var specs []bench.Spec
	for _, n := range equivBenchmarks {
		s, err := bench.Find(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	progs := buildBoth(t, specs, equivProfile)
	return progs
}

func ratePP(st pipeline.Stats) float64 { return 100 * st.MispredictRate() }

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: trace %0.3f vs pipeline %0.3f (tolerance %0.3f)", what, got, want, tol)
	}
}

func withinCount(t *testing.T, what string, got, want, slack uint64) {
	t.Helper()
	d := int64(got) - int64(want)
	if d < 0 {
		d = -d
	}
	if uint64(d) > slack {
		t.Errorf("%s: trace %d vs pipeline %d (slack %d)", what, got, want, slack)
	}
}

func withinRel(t *testing.T, what string, got, want uint64, rel float64, slack uint64) {
	t.Helper()
	d := math.Abs(float64(got) - float64(want))
	if d > rel*float64(want)+float64(slack) {
		t.Errorf("%s: trace %d vs pipeline %d (rel tolerance %0.2f)", what, got, want, rel)
	}
}

// TestTraceReplayEquivalence is the subsystem's correctness oracle: it
// records each benchmark's trace once and replays it through every
// predictor organization, asserting the counts against a full-pipeline
// run of the same benchmark and commit budget.
func TestTraceReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence oracle simulates the pipeline; skipped with -short")
	}
	progs := prepareEquiv(t)
	schemes := []config.Scheme{config.SchemeConventional, config.SchemePredicate, config.SchemePEPPA}
	for _, converted := range []bool{false, true} {
		// avg rates for the figure-level ranking assertions
		avgPipe := map[config.Scheme]float64{}
		avgTrace := map[config.Scheme]float64{}
		for _, pg := range progs {
			p := pg.Plain
			if converted {
				p = pg.Converted
			}
			tr, err := trace.Record(context.Background(), p, equivCommits+64)
			if err != nil {
				t.Fatal(err)
			}
			for _, sch := range schemes {
				cfg := config.Default().WithScheme(sch)
				pst, err := Simulate(cfg, p, equivCommits)
				if err != nil {
					t.Fatal(err)
				}
				tst, err := Replay(cfg, p, tr, equivCommits)
				if err != nil {
					t.Fatal(err)
				}
				name := pg.Spec.Name + "/" + sch.String()
				if converted {
					name += "/ifconv"
				}
				avgPipe[sch] += ratePP(pst)
				avgTrace[sch] += ratePP(tst)

				// The committed stream is exact.
				withinCount(t, name+" committed", tst.Committed, pst.Committed, countSlack)
				withinCount(t, name+" cond branches", tst.CondBranches, pst.CondBranches, countSlack)
				withinCount(t, name+" compares", tst.Compares, pst.Compares, countSlack)

				switch sch {
				case config.SchemeConventional:
					within(t, name+" mispredict%", ratePP(tst), ratePP(pst), convRateTolPP)
				case config.SchemePredicate:
					within(t, name+" mispredict%", ratePP(tst), ratePP(pst), predRateTolPP)
					withinRel(t, name+" early-resolved", tst.EarlyResolved, pst.EarlyResolved, earlyRelTol, 48)
					withinCount(t, name+" pred predictions", tst.PredPredictions, pst.PredPredictions, 2*countSlack)
					withinRel(t, name+" pred mispredicts", tst.PredMispredicts, pst.PredMispredicts, predMisRelTol, 16)
					// The shadow predictor runs at commit in both
					// engines: exact modulo the stream-length overshoot.
					withinCount(t, name+" shadow branches", tst.ShadowCondBranches, pst.ShadowCondBranches, shadowCountTol)
					withinCount(t, name+" shadow mispredicts", tst.ShadowMispred, pst.ShadowMispred, shadowCountTol)
				case config.SchemePEPPA:
					within(t, name+" mispredict%", ratePP(tst), ratePP(pst), peppaRateTolPP)
				}
			}
		}
		// Figure-level ranking: both modes must order the schemes the
		// same way by average misprediction rate (Figure 5 on the plain
		// binaries, Figure 6a on the if-converted ones).
		rank := func(avg map[config.Scheme]float64) []config.Scheme {
			out := append([]config.Scheme(nil), schemes...)
			for i := range out {
				for j := i + 1; j < len(out); j++ {
					if avg[out[j]] < avg[out[i]] {
						out[i], out[j] = out[j], out[i]
					}
				}
			}
			return out
		}
		rp, rt := rank(avgPipe), rank(avgTrace)
		for i := range rp {
			if rp[i] != rt[i] {
				t.Errorf("converted=%v: scheme ranking diverges: pipeline %v, trace %v", converted, rp, rt)
				break
			}
		}
		if avgTrace[config.SchemePredicate] >= avgTrace[config.SchemeConventional] {
			t.Errorf("converted=%v: trace mode loses the paper's headline (predpred %0.2f%% vs conventional %0.2f%%)",
				converted, avgTrace[config.SchemePredicate]/float64(len(progs)), avgTrace[config.SchemeConventional]/float64(len(progs)))
		}
	}
}

// guardedCompareProgram is a loop whose guarded compare reads a guard
// produced by the compare right before it from a pseudo-random bit: the
// guard is unresolved at rename and rarely confidently predicted, so
// selective predication issues nearly every false-guarded compare as a
// select micro-op instead of cancelling it. The program halts after
// trips iterations.
func guardedCompareProgram(trips int64) *program.Program {
	b := program.NewBuilder("guarded-compare")
	b.MovI(1, 12345).MovI(2, 0).MovI(7, trips)
	b.Label("loop").
		MulI(1, 1, 1103515245).AddI(1, 1, 12345).
		ShrI(3, 1, 16).AndI(3, 3, 1).
		CmpI(isa.RelEQ, isa.CmpNorm, 3, 4, 3, 1).
		G(3).CmpI(isa.RelLT, isa.CmpNorm, 5, 6, 2, trips/2).
		AddI(2, 2, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 8, 9, 2, 7).
		G(8).Br("loop").
		Halt()
	return b.Program()
}

// TestReplayReadsCompareGuard is the regression test for a guarded
// compare's guard: replay must decide cancellation from the compare's
// own guard, as the pipeline does, so the predicate predictions it
// scores match the pipeline's. A trace that drops the guard reads it as
// p0, cancels every false-guarded compare, and scores about a sixth of
// the predictions short (1,000 false guards of 6,000 compares here).
// The confident cancellations that remain are modeled, not simulated:
// trace mode makes about twice as many as the pipeline, 8 predictions'
// worth at this length (DESIGN.md, fidelity contract).
func TestReplayReadsCompareGuard(t *testing.T) {
	p := guardedCompareProgram(2000)
	tr, err := trace.Record(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithScheme(config.SchemePredicate)
	pst, err := Simulate(cfg, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tst, err := Replay(cfg, p, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	withinCount(t, "committed", tst.Committed, pst.Committed, countSlack)
	withinCount(t, "pred predictions", tst.PredPredictions, pst.PredPredictions, 2*countSlack)
}

// TestReplayIdealizedVariants exercises the §4.2 idealized knobs and
// the ablation configurations through the trace engine.
func TestReplayIdealizedVariants(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Build(spec)
	tr, err := trace.Record(context.Background(), p, 60000)
	if err != nil {
		t.Fatal(err)
	}
	base := config.Default().WithScheme(config.SchemePredicate)
	st, err := Replay(base, p, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}

	ideal := base
	ideal.IdealNoAlias, ideal.IdealPerfectGHR = true, true
	ist, err := Replay(ideal, p, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	// Idealization is a strong tendency, not an invariant (switching to
	// the retired history also changes which rows alias): allow a small
	// regression margin.
	if 100*ist.MispredictRate() > 100*st.MispredictRate()+0.5 {
		t.Errorf("idealization should not hurt: ideal %0.3f vs base %0.3f",
			100*ist.MispredictRate(), 100*st.MispredictRate())
	}

	corrupt := base
	corrupt.DisableGHRRepair = true
	cst, err := Replay(corrupt, p, tr, 60000)
	if err != nil {
		t.Fatal(err)
	}
	if cst.PredMispredicts < st.PredMispredicts {
		t.Errorf("disabling GHR repair should not improve predicate accuracy: %d vs %d",
			cst.PredMispredicts, st.PredMispredicts)
	}

	split := base
	split.SplitPVT = true
	if _, err := Replay(split, p, tr, 60000); err != nil {
		t.Fatal(err)
	}

	sel := base
	sel.Predication = config.PredicationSelect
	if _, err := Replay(sel, p, tr, 60000); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCancellation checks that a replay under a cancelled
// context returns promptly with the context error.
func TestReplayCancellation(t *testing.T) {
	spec, err := bench.Find("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Build(spec)
	tr, err := trace.Record(context.Background(), prog, 400000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := config.Default().WithScheme(config.SchemePredicate)
	if _, err := ReplayAll(ctx, []config.Config{cfg}, prog, tr, 0, nil); err == nil {
		t.Fatal("want context error from cancelled replay")
	}
}
