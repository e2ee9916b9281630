// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§4), plus the design-choice ablations and raw
// simulator throughput, all driven through the public repro/sim façade.
// Each benchmark regenerates its figure at a reduced commit budget and
// reports the headline comparison via b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation. Use
// cmd/experiments for full-budget runs (recorded in EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"sync"
	"testing"

	"repro/sim"
)

// benchCommits is the per-run commit budget for benchmark-harness runs;
// cmd/experiments defaults to 300k for the recorded EXPERIMENTS.md
// numbers.
const benchCommits = 60000

// simMode selects the execution mode for the figure benchmarks:
// `go test -bench=. -args -simmode=trace` regenerates every figure from
// record-once traces instead of the cycle model.
var simMode = flag.String("simmode", "pipeline", "figure benchmark execution mode: pipeline | trace")

func benchMode(b *testing.B) sim.Mode {
	b.Helper()
	m, err := sim.ParseSingleMode(*simMode)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var (
	prepOnce sync.Once
	prepped  *sim.Workload
	prepErr  error
)

func workload(b *testing.B) *sim.Workload {
	b.Helper()
	prepOnce.Do(func() {
		prepped, prepErr = sim.PrepareWorkload(nil, 150000)
	})
	if prepErr != nil {
		b.Fatal(prepErr)
	}
	return prepped
}

// figure runs one benchmark × scheme matrix through the façade and
// returns the results in matrix order.
func figure(b *testing.B, wl *sim.Workload, schemes []string, ifConverted bool, mutate func(*sim.Config)) []sim.Result {
	b.Helper()
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes(schemes...),
		sim.WithIfConversion(ifConverted),
		sim.WithCommits(benchCommits),
		sim.WithConfigMutator(mutate),
		sim.WithMode(benchMode(b)),
	)
	if err != nil {
		b.Fatal(err)
	}
	results, err := exp.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return results
}

func tabulate(b *testing.B, title string, schemes []string, rs []sim.Result) *sim.Table {
	b.Helper()
	tab, err := sim.Tabulate(title, schemes, rs)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkTable1Config regenerates Table 1 (architectural parameters).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		if len(cfg.Table1()) == 0 {
			b.Fatal("empty Table 1")
		}
	}
}

// BenchmarkFigure5 regenerates Figure 5: conventional vs predicate
// predictor on the non-if-converted binaries.
func BenchmarkFigure5(b *testing.B) {
	wl := workload(b)
	schemes := []string{"conventional", "predpred"}
	for i := 0; i < b.N; i++ {
		runs := figure(b, wl, schemes, false, nil)
		tab := tabulate(b, "fig5", schemes, runs)
		b.ReportMetric(tab.Average("conventional"), "conv-mispred-%")
		b.ReportMetric(tab.Average("predpred"), "predpred-mispred-%")
		b.ReportMetric(tab.AccuracyDelta("predpred", "conventional"), "accuracy-gain-pp")
	}
}

// BenchmarkFigure5Ideal regenerates the §4.2 idealized experiment
// (no alias conflicts, perfect global-history update).
func BenchmarkFigure5Ideal(b *testing.B) {
	wl := workload(b)
	schemes := []string{"conventional", "predpred"}
	for i := 0; i < b.N; i++ {
		runs := figure(b, wl, schemes, false, func(c *sim.Config) {
			c.IdealNoAlias, c.IdealPerfectGHR = true, true
		})
		tab := tabulate(b, "fig5ideal", schemes, runs)
		b.ReportMetric(tab.AccuracyDelta("predpred", "conventional"), "ideal-gain-pp")
	}
}

// BenchmarkFigure6a regenerates Figure 6a: PEP-PA vs conventional vs
// predicate predictor on the if-converted binaries.
func BenchmarkFigure6a(b *testing.B) {
	wl := workload(b)
	schemes := []string{"peppa", "conventional", "predpred"}
	for i := 0; i < b.N; i++ {
		runs := figure(b, wl, schemes, true, nil)
		tab := tabulate(b, "fig6a", schemes, runs)
		b.ReportMetric(tab.Average("peppa"), "peppa-mispred-%")
		b.ReportMetric(tab.Average("conventional"), "conv-mispred-%")
		b.ReportMetric(tab.Average("predpred"), "predpred-mispred-%")
		b.ReportMetric(float64(tab.Wins("predpred")), "predpred-wins")
	}
}

// BenchmarkFigure6b regenerates Figure 6b: the early-resolved vs
// correlation breakdown of the accuracy difference.
func BenchmarkFigure6b(b *testing.B) {
	wl := workload(b)
	one := []string{"predpred"}
	for i := 0; i < b.N; i++ {
		runs := figure(b, wl, one, true, nil)
		bd, err := sim.BreakdownTable(runs)
		if err != nil {
			b.Fatal(err)
		}
		var early, corr float64
		for _, r := range bd {
			early += r.Early
			corr += r.Correlation
		}
		n := float64(len(bd))
		b.ReportMetric(early/n, "early-resolved-pp")
		b.ReportMetric(corr/n, "correlation-pp")
	}
}

// BenchmarkFigure6Ideal regenerates the §4.3 idealized experiment on
// if-converted binaries.
func BenchmarkFigure6Ideal(b *testing.B) {
	wl := workload(b)
	schemes := []string{"conventional", "predpred"}
	for i := 0; i < b.N; i++ {
		runs := figure(b, wl, schemes, true, func(c *sim.Config) {
			c.IdealNoAlias, c.IdealPerfectGHR = true, true
		})
		tab := tabulate(b, "fig6ideal", schemes, runs)
		b.ReportMetric(tab.AccuracyDelta("predpred", "conventional"), "ideal-gain-pp")
	}
}

// ablationWorkload picks the six ablation benchmarks.
func ablationWorkload(b *testing.B) *sim.Workload {
	b.Helper()
	sub, err := workload(b).Subset("gzip", "vpr", "twolf", "parser", "swim", "mesa")
	if err != nil {
		b.Fatal(err)
	}
	return sub
}

// BenchmarkAblationSplitPVT compares the shared PVT with two hash
// functions against a statically split PVT (§3.3).
func BenchmarkAblationSplitPVT(b *testing.B) {
	wl := ablationWorkload(b)
	one := []string{"predpred"}
	for i := 0; i < b.N; i++ {
		shared := figure(b, wl, one, true, nil)
		split := figure(b, wl, one, true, func(c *sim.Config) { c.SplitPVT = true })
		var a, s float64
		for j := range shared {
			a += 100 * shared[j].Stats.MispredictRate()
			s += 100 * split[j].Stats.MispredictRate()
		}
		n := float64(len(shared))
		b.ReportMetric(a/n, "shared-mispred-%")
		b.ReportMetric(s/n, "split-mispred-%")
	}
}

// BenchmarkAblationSelectivePredication compares selective predication
// against the select-µop baseline on IPC (§3.2).
func BenchmarkAblationSelectivePredication(b *testing.B) {
	wl := ablationWorkload(b)
	one := []string{"predpred"}
	for i := 0; i < b.N; i++ {
		sel := figure(b, wl, one, true, nil)
		base := figure(b, wl, one, true, func(c *sim.Config) {
			c.Predication = sim.PredicationSelect
		})
		var a, s float64
		for j := range sel {
			a += sel[j].Stats.IPC()
			s += base[j].Stats.IPC()
		}
		b.ReportMetric(100*(a/s-1), "ipc-speedup-%")
	}
}

// BenchmarkAblationGHRCorruption measures the cost of speculative
// global-history corruption against the perfect-GHR idealization (§3.3).
func BenchmarkAblationGHRCorruption(b *testing.B) {
	wl := ablationWorkload(b)
	one := []string{"predpred"}
	for i := 0; i < b.N; i++ {
		spec := figure(b, wl, one, true, nil)
		perf := figure(b, wl, one, true, func(c *sim.Config) { c.IdealPerfectGHR = true })
		var a, p float64
		for j := range spec {
			a += 100 * spec[j].Stats.MispredictRate()
			p += 100 * perf[j].Stats.MispredictRate()
		}
		b.ReportMetric((a-p)/float64(len(spec)), "corruption-cost-pp")
	}
}

// BenchmarkPipelineThroughput measures raw simulator speed (committed
// instructions per wall second) for each scheme on one benchmark.
func BenchmarkPipelineThroughput(b *testing.B) {
	prog, err := sim.BuildBenchmark("vpr")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []string{"conventional", "predpred", "peppa"} {
		s := s
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.SimulateProgram(context.Background(), sim.ProgramRun{
					Program: prog,
					Scheme:  s,
					Commits: 50000,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Committed < 50000 {
					b.Fatal("short run")
				}
			}
			b.ReportMetric(50000*float64(b.N)/b.Elapsed().Seconds(), "commits/s")
		})
	}
}
