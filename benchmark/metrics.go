package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json mirrors these two
// lists; the contract test keeps them in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off over several fresh child processes per run, with times
// scaled to the reference host speed (see calibrate).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_mips", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, taken from one traced
// invocation. A layer a workload never passes through reports 0.
var perLayer = []metricDef{
	// sim: runner, sweep, sinks.
	{Name: "sim.cells", Unit: "count", Better: "higher"},
	{Name: "sim.replay_passes", Unit: "count", Better: "lower"},
	{Name: "sim.dup_cell_frac", Unit: "fraction", Better: "lower"},
	{Name: "sim.worker_busy_frac", Unit: "fraction", Better: "higher"},
	{Name: "sim.sink_us_per_row", Unit: "us/row", Better: "lower"},
	{Name: "sim.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace_err_pp", Unit: "pp", Better: "lower"},
	// bench + ifconvert.
	{Name: "bench.prepare_ms", Unit: "ms", Better: "lower"},
	// emulator + trace: recording, disk tier, decode.
	{Name: "trace.record_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "trace.recordings", Unit: "count", Better: "lower"},
	{Name: "trace.cache_hits", Unit: "count", Better: "higher"},
	{Name: "trace.load_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "trace.store_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "trace.bytes_per_instr", Unit: "B/instr", Better: "lower"},
	{Name: "trace.decode_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	// stats: the replay frontend and the scheme engines.
	{Name: "stats.frontend_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "stats.engine.conventional_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "stats.engine.predpred_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "stats.engine.peppa_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	// pipeline + cache: host cost, then simulated counts.
	{Name: "pipeline.conventional_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "pipeline.predpred_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "pipeline.peppa_ns_per_instr", Unit: "ns/instr", Better: "lower"},
	{Name: "pipeline.ns_per_cycle", Unit: "ns/cycle", Better: "lower"},
	{Name: "pipeline.ipc", Unit: "instr/cycle", Better: "higher"},
	{Name: "pipeline.fetched_per_committed", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.flushes_per_kinstr", Unit: "1/kinstr", Better: "lower"},
	{Name: "cache.l1d_miss_pct", Unit: "%", Better: "lower"},
	{Name: "cache.l2_miss_pct", Unit: "%", Better: "lower"},
	// Go runtime.
	{Name: "go.alloc_bytes_per_instr", Unit: "B/instr", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
	// The host: unscaled wall time and the calibration kernel's time.
	{Name: "host.wall_s", Unit: "s", Better: "lower"},
	{Name: "host.calibration_ms", Unit: "ms", Better: "lower"},
}

// summary is the distribution of one metric's per-invocation samples.
type summary struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return summary{Samples: samples, Median: median(s), Q1: q1, Q3: q3, N: len(s)}
}

// median of an ascending slice; NaN when empty.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of an ascending slice by the method Python's
// statistics.quantiles(data, n=4) uses by default ("exclusive"), so
// spreads computed here and by external tooling agree.
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
