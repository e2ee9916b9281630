package stats

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/program"
	"repro/internal/trace"
)

// suiteReplayCommits is BenchmarkReplaySuite's commit budget: the
// figures' default, clear of the benchmarks' array-init prologue.
const suiteReplayCommits = 300000

// BenchmarkReplaySuite times the replay layers over all 44 suite
// binaries, plain and if-converted, at 300k commits: one pass of the
// three schemes per binary with no store, so every pass runs its
// conventional predictor. It reports ns per committed instruction on
// the replay clock for decode, the frontend (the conventional
// predictor included) and each scheme's engine, summed over the
// binaries. Building, converting and recording the suite is setup,
// outside the timer.
func BenchmarkReplaySuite(b *testing.B) {
	type binary struct {
		prog *program.Program
		tr   *trace.Trace
	}
	var bins []binary
	for _, bb := range buildBoth(b, bench.Suite(), 200000) {
		for _, prog := range []*program.Program{bb.Plain, bb.Converted} {
			tr, err := trace.Record(context.Background(), prog, suiteReplayCommits)
			if err != nil {
				b.Fatal(err)
			}
			bins = append(bins, binary{prog, tr})
		}
	}
	cfgs := schemeCfgs()
	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	var decode, frontend int64
	engines := make([]int64, len(cfgs))
	var instrs float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, bin := range bins {
			p, err := ReplayAll(context.Background(), cfgs, bin.prog, bin.tr, suiteReplayCommits, nil, now)
			if err != nil {
				b.Fatal(err)
			}
			decode += p.Timings.DecodeNS
			frontend += p.Timings.FrontendNS
			for i, ns := range p.Timings.EngineNS {
				engines[i] += ns
			}
			instrs += float64(p.Stats[0].Committed)
		}
	}
	b.ReportMetric(float64(decode)/instrs, "decode-ns/instr")
	b.ReportMetric(float64(frontend)/instrs, "frontend-ns/instr")
	for i, sch := range replaySchemes {
		b.ReportMetric(float64(engines[i])/instrs, sch.String()+"-ns/instr")
	}
}
