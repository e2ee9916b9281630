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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// observed attaches a metrics observer to every BenchmarkTraceVsPipeline
// run, so the written document measures the instrumented replay path.
// CI compares it against the committed (uninstrumented) baseline to
// report instrumentation overhead; the observer's metrics snapshot and
// run manifests land next to -benchout.
var observed = flag.Bool("observed", false, "instrument BenchmarkTraceVsPipeline runs with a sim.Observer; writes metrics + manifests next to -benchout")

// benchout is where BenchmarkTraceVsPipeline writes its comparison
// document. The default is the committed baseline path; observed runs
// pass a scratch path so they never clobber the baseline.
var benchout = flag.String("benchout", "BENCH_trace.json", "output path for the trace-vs-pipeline benchmark JSON")

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

// BenchmarkTraceVsPipeline measures simulated-instruction throughput of
// both execution modes for each scheme on one benchmark — plus the
// single-pass multi-scheme replay that decodes the trace once for all
// three schemes, and the cold vs warm sweep pair — and writes the
// comparison (with per-scheme, single-pass and sweep speedups) to
// BENCH_trace.json so the perf trajectory of the trace engine is
// tracked in-repo.
func BenchmarkTraceVsPipeline(b *testing.B) {
	prog, err := sim.BuildBenchmark("vpr")
	if err != nil {
		b.Fatal(err)
	}
	const runCommits = 50000
	schemes := []string{"conventional", "predpred", "peppa"}
	dir := b.TempDir()
	var obsv *sim.Observer
	if *observed {
		obsv = sim.NewObserver()
	}
	ips := map[string]map[string]float64{
		"pipeline": {}, "trace": {}, "trace-singlepass": {},
	}
	for _, mode := range []sim.Mode{sim.ModePipeline, sim.ModeTrace} {
		mode := mode
		for _, s := range schemes {
			s := s
			b.Run(fmt.Sprintf("%s/%s", mode, s), func(b *testing.B) {
				run := sim.ProgramRun{
					Program: prog, Scheme: s, Commits: runCommits,
					Mode: mode, TraceDir: dir, Observer: obsv,
				}
				if mode == sim.ModeTrace {
					// Warm the trace cache: recording happens once per
					// benchmark, replaying once per scheme × config.
					if _, err := sim.SimulateProgram(context.Background(), run); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := sim.SimulateProgram(context.Background(), run)
					if err != nil {
						b.Fatal(err)
					}
					if res.Stats.Committed < runCommits-1 {
						b.Fatalf("short run: %d", res.Stats.Committed)
					}
				}
				v := runCommits * float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(v, "instrs/s")
				ips[mode.String()][s] = v
			})
		}
	}
	// The three-scheme comparison in one pass: trace decoded once, all
	// engines fed in lockstep. The metric is aggregate scheme-instrs/s
	// (scheme-replays × committed instructions per wall second), directly
	// comparable to summing the three per-scheme trace legs above.
	b.Run("trace/all-singlepass", func(b *testing.B) {
		run := sim.ProgramRun{
			Program: prog, Commits: runCommits, Mode: sim.ModeTrace, TraceDir: dir,
			Observer: obsv,
		}
		if _, err := sim.SimulateProgramSchemes(context.Background(), run, schemes...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := sim.SimulateProgramSchemes(context.Background(), run, schemes...)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range rs {
				if res.Stats.Committed < runCommits-1 {
					b.Fatalf("short run: %d", res.Stats.Committed)
				}
			}
		}
		v := float64(len(schemes)) * runCommits * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(v, "instrs/s")
		ips["trace-singlepass"]["all"] = v
	})
	// The sweep pair: the same scheme-knob grid, cold (every cell
	// replayed) and warm-started with a frontend-artifact cache (cells
	// differing only in carryover knobs reused). Their ratio is the
	// sweep_warm_speedup series CI floors; results are byte-identical
	// (TestWarmSweepByteIdenticalToCold).
	sweepIPS := map[string]float64{}
	b.Run("sweep/cold", func(b *testing.B) {
		sweepIPS["cold"] = sweepLeg(b, dir, "", false)
	})
	b.Run("sweep/warm", func(b *testing.B) {
		sweepIPS["warm"] = sweepLeg(b, dir, b.TempDir(), true)
	})
	writeTraceBenchJSON(b, schemes, ips, sweepIPS)
	writeObservedOutputs(b, obsv)
}

// Sweep benchmark parameters: an 8-point grid over one replay-visible
// knob (pred.bytes) and one carryover knob (mispredict.penalty), two
// benchmarks × two schemes per point. Two workers keep each warm-start
// chunk long enough to amortize its one replay per coordinate.
const (
	sweepCommits = 50000
	sweepWorkers = 2
)

// sweepLeg runs the benchmark sweep grid to completion b.N times and
// returns the replayed-statistics throughput in scheme-instrs/s: cells
// × commit budget over wall time. The warm leg's gain comes from
// reusing replay statistics across the carryover axis, not from doing
// less statistical work — every cell still yields its full Stats.
func sweepLeg(b *testing.B, traceDir, frontendDir string, warm bool) float64 {
	b.Helper()
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, sweepCommits)
	if err != nil {
		b.Fatal(err)
	}
	opts := []sim.Option{
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(sweepCommits),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(traceDir),
		sim.WithParallelism(sweepWorkers),
	}
	if frontendDir != "" {
		opts = append(opts, sim.WithFrontendCache(frontendDir))
	}
	exp, err := sim.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func() int {
		sw, err := sim.NewSweep(exp,
			sim.WithAxis("pred.bytes", 75776, 151552),
			sim.WithAxis("mispredict.penalty", 5, 10, 15, 20),
			sim.WithWarmStart(warm),
		)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sw.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		cells := 0
		for _, sr := range rs {
			for _, r := range sr.Results {
				if r.Err != nil {
					b.Fatalf("point %d %s/%s: %v", sr.Point.Index, r.Bench, r.Scheme, r.Err)
				}
				cells++
			}
		}
		return cells
	}
	cells := sweep() // warm-up: record traces, build artifacts
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	v := float64(cells) * sweepCommits * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(v, "instrs/s")
	return v
}

// writeObservedOutputs flushes the observer's metrics snapshot and run
// manifests next to -benchout, so CI can archive the instrumented
// run's telemetry as an artifact.
func writeObservedOutputs(b *testing.B, obsv *sim.Observer) {
	b.Helper()
	if obsv == nil {
		return
	}
	stem := strings.TrimSuffix(*benchout, ".json")
	if err := obsv.WriteMetricsFile(stem + ".metrics.json"); err != nil {
		b.Fatal(err)
	}
	if err := obsv.WriteManifestsFile(stem + ".manifests.ndjson"); err != nil {
		b.Fatal(err)
	}
}

// aggregateIPS folds per-scheme instrs/s into the aggregate throughput
// of running every scheme once (total scheme-instructions over total
// wall time — the harmonic composition). Zero if any leg is absent.
func aggregateIPS(schemes []string, m map[string]float64) float64 {
	var inv float64
	for _, s := range schemes {
		v := m[s]
		if v <= 0 {
			return 0
		}
		inv += 1 / v
	}
	return float64(len(schemes)) / inv
}

// writeTraceBenchJSON records both modes' instructions-per-second, the
// resulting per-scheme speedups, the single-pass figures — the
// "all-singlepass" speedup series (single-pass aggregate over pipeline
// aggregate, machine-independent like the per-scheme ratios) and the
// informational gain of the single pass over three independent
// replays. The sweep pair lands as sweep_ips (cold/warm
// replayed-statistics throughput) and sweep_warm_speedup (their
// within-run ratio, a series CI floors).
func writeTraceBenchJSON(b *testing.B, schemes []string, ips map[string]map[string]float64, sweepIPS map[string]float64) {
	b.Helper()
	if len(ips["pipeline"]) == 0 || len(ips["trace"]) == 0 {
		return // sub-benchmarks filtered out; nothing comparable
	}
	speedup := map[string]float64{}
	for _, s := range schemes {
		if p, t := ips["pipeline"][s], ips["trace"][s]; p > 0 && t > 0 {
			speedup[s] = t / p
		}
	}
	doc := map[string]any{
		"benchmark":          "vpr",
		"commits_per_run":    50000,
		"instrs_per_second":  ips,
		"trace_mode_speedup": speedup,
	}
	pipeAgg := aggregateIPS(schemes, ips["pipeline"])
	traceAgg := aggregateIPS(schemes, ips["trace"])
	if sp := ips["trace-singlepass"]["all"]; sp > 0 && pipeAgg > 0 {
		speedup["all-singlepass"] = sp / pipeAgg
		if traceAgg > 0 {
			doc["trace_singlepass_gain"] = sp / traceAgg
		}
	} else {
		// The single-pass leg was filtered out: drop the hollow series
		// instead of serializing an empty map. Against a full committed
		// baseline the gate still (correctly) fails the document as
		// missing that series — a partial refresh is not a valid
		// baseline.
		delete(ips, "trace-singlepass")
	}
	if c, w := sweepIPS["cold"], sweepIPS["warm"]; c > 0 && w > 0 {
		doc["sweep_ips"] = sweepIPS
		doc["sweep_warm_speedup"] = map[string]float64{"warm_vs_cold": w / c}
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if dir := filepath.Dir(*benchout); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
	}
	if err := os.WriteFile(*benchout, append(raw, '\n'), 0o644); err != nil {
		b.Fatal(err)
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
