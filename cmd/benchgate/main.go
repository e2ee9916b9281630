// Command benchgate is the CI bench-regression gate: it compares a
// freshly generated BENCH_trace.json (written by
// BenchmarkTraceVsPipeline) against the committed one and fails when
// any figure of the chosen metric drifts outside a relative tolerance
// band — a drop is a regression, an unexplained rise means the
// committed baseline is stale and should be refreshed.
//
// -metric ips compares absolute instrs/s (meaningful between runs on
// like hardware); -metric speedup compares the trace/pipeline ratio
// measured within one run, which gates cleanly on shared CI runners
// whose absolute speed varies; -metric sweep gates the warm-started
// sweep's within-run speedup over a cold sweep of the same grid
// (sweep_warm_speedup), equally machine-independent.
//
//	benchgate -old BENCH_trace.json.committed -new BENCH_trace.json -metric speedup -tol 0.30
//
// -metric repeats, so one invocation gates every metric CI cares
// about. A per-metric ":min=F" suffix switches that metric to floor
// mode: no baseline is read for it, and every series value in the fresh
// document must be at least F. This gates within-run ratios whose
// absolute value depends on the runner's hardware (the committed
// baseline may have been measured elsewhere), while the rest compare
// against the baseline:
//
//	benchgate -old committed.json -new BENCH_trace.json \
//	    -metric speedup -metric sweep:min=1.5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchDoc mirrors the layout bench_test.go's writeTraceBenchJSON
// emits; unknown fields are ignored.
type benchDoc struct {
	Benchmark       string                        `json:"benchmark"`
	InstrsPerSecond map[string]map[string]float64 `json:"instrs_per_second"`
	Speedup         map[string]float64            `json:"trace_mode_speedup"`
	SweepIPS        map[string]float64            `json:"sweep_ips"`          // "cold"/"warm" → replayed instrs/s across the sweep
	SweepWarm       map[string]float64            `json:"sweep_warm_speedup"` // within-run warm-vs-cold sweep wall-clock ratio
}

// series flattens the document's chosen metric into comparable
// key→value pairs: "mode/scheme" → instrs/s, or "scheme" →
// trace-mode speedup. The speedup metric is a within-run ratio, so it
// gates cleanly across machines of different absolute speed; instrs/s
// only compares like hardware.
func (d benchDoc) series(metric string) map[string]float64 {
	out := map[string]float64{}
	switch metric {
	case "ips":
		for mode, schemes := range d.InstrsPerSecond {
			for scheme, v := range schemes {
				out[mode+"/"+scheme] = v
			}
		}
	case "speedup":
		for scheme, v := range d.Speedup {
			out[scheme] = v
		}
	case "sweep":
		for k, v := range d.SweepWarm {
			out[k] = v
		}
	}
	return out
}

// floor gates the fresh document alone against an absolute minimum:
// every series value of the metric must be a finite figure of at least
// min. Returned entries describe the violations in sorted key order; a
// metric with no series at all is an error, not a trivially green gate.
func floor(fresh benchDoc, metric string, min float64) ([]string, error) {
	s := fresh.series(metric)
	if len(s) == 0 {
		return nil, fmt.Errorf("fresh document has no %s series", metric)
	}
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var below []string
	for _, k := range keys {
		v := s[k]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < min {
			below = append(below, fmt.Sprintf("%s = %.4g (floor %.4g)", k, v, min))
		}
	}
	return below, nil
}

// drift is one out-of-band comparison.
type drift struct {
	Key      string // "mode/scheme"
	Old, New float64
	Ratio    float64
}

// comparison is the outcome of gating one metric: entries outside the
// tolerance band, keys present in only one document (named with the
// side they are missing from, so a dropped scheme cannot sneak past the
// gate), and keys whose baseline figure cannot anchor a ratio at all.
type comparison struct {
	drifts  []drift
	missing []string // asymmetric key sets, each naming the absent side
	invalid []string // zero/negative/non-finite baseline figures
}

func (c comparison) failed() bool {
	return len(c.drifts) > 0 || len(c.missing) > 0 || len(c.invalid) > 0
}

// compare gates the chosen metric: the two documents' key sets must
// match exactly (a key present on one side only is a failure naming the
// side — a vanished series hides regressions, an appeared one means the
// baseline is stale), every baseline figure must be a positive finite
// number (anything else cannot anchor a drift ratio and is reported as
// an invalid baseline instead of dividing into Inf/NaN), and every
// new/old ratio must fall inside [1-tol, 1+tol]. A metric with no
// baseline series at all is an error, not a trivially green gate.
func compare(old, fresh benchDoc, metric string, tol float64) (comparison, error) {
	os, ns := old.series(metric), fresh.series(metric)
	if len(os) == 0 {
		return comparison{}, fmt.Errorf("baseline document has no %s series to gate against", metric)
	}
	if len(ns) == 0 {
		return comparison{}, fmt.Errorf("fresh document has no %s series", metric)
	}
	keys := map[string]bool{}
	for k := range os {
		keys[k] = true
	}
	for k := range ns {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var c comparison
	for _, k := range sorted {
		o, okOld := os[k]
		n, okNew := ns[k]
		switch {
		case !okOld:
			c.missing = append(c.missing, k+" (absent from baseline)")
		case !okNew:
			c.missing = append(c.missing, k+" (absent from fresh run)")
		case o <= 0 || math.IsNaN(o) || math.IsInf(o, 0):
			c.invalid = append(c.invalid, fmt.Sprintf("%s (baseline %v is not a positive finite figure)", k, o))
		default:
			ratio := n / o
			if ratio < 1-tol || ratio > 1+tol {
				c.drifts = append(c.drifts, drift{Key: k, Old: o, New: n, Ratio: ratio})
			}
		}
	}
	return c, nil
}

// gateSpec is one -metric occurrence: a metric name, optionally pinned
// to floor mode by a ":min=F" suffix (min 0 = baseline comparison).
type gateSpec struct {
	metric string
	min    float64
}

// gateList collects repeated -metric flags.
type gateList []gateSpec

func (g *gateList) String() string {
	parts := make([]string, len(*g))
	for i, s := range *g {
		parts[i] = s.metric
		if s.min > 0 {
			parts[i] = fmt.Sprintf("%s:min=%g", s.metric, s.min)
		}
	}
	return strings.Join(parts, ",")
}

func (g *gateList) Set(v string) error {
	name, opt, hasOpt := strings.Cut(v, ":")
	spec := gateSpec{metric: name}
	if !validMetrics[name] {
		return fmt.Errorf("metric %q must be ips, speedup or sweep", name)
	}
	if hasOpt {
		val, ok := strings.CutPrefix(opt, "min=")
		if !ok {
			return fmt.Errorf(`metric option %q is not "min=F"`, opt)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			return fmt.Errorf("metric floor %q is not a positive number", val)
		}
		spec.min = f
	}
	for _, prev := range *g {
		if prev.metric == spec.metric {
			return fmt.Errorf("metric %q given twice", name)
		}
	}
	*g = append(*g, spec)
	return nil
}

var validMetrics = map[string]bool{"ips": true, "speedup": true, "sweep": true}

func load(path string) (benchDoc, error) {
	var d benchDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.InstrsPerSecond) == 0 {
		return d, fmt.Errorf("%s: no instrs_per_second entries", path)
	}
	return d, nil
}

func main() {
	var gates gateList
	var (
		oldPath = flag.String("old", "", "committed benchmark JSON (the baseline; unused when every metric has a floor)")
		newPath = flag.String("new", "BENCH_trace.json", "freshly generated benchmark JSON")
		tol     = flag.Float64("tol", 0.30, "relative tolerance band around the baseline")
	)
	flag.Var(&gates, "metric", `what to gate, repeatable: ips (absolute instrs/s; like hardware only), speedup (trace/pipeline ratio) or sweep (warm-vs-cold sweep ratio); "name:min=F" gates that metric against an absolute floor instead of the baseline`)
	flag.Parse()
	if len(gates) == 0 {
		gates = gateList{{metric: "ips"}}
	}
	needBaseline := false
	for _, g := range gates {
		if g.min == 0 {
			needBaseline = true
		}
	}
	if needBaseline {
		if *oldPath == "" {
			fmt.Fprintln(os.Stderr, "benchgate: -old is required (or give every -metric a floor)")
			os.Exit(2)
		}
		if *tol <= 0 || *tol >= 1 {
			fmt.Fprintf(os.Stderr, "benchgate: -tol %v must be in (0, 1)\n", *tol)
			os.Exit(2)
		}
	}
	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	var old benchDoc
	if needBaseline {
		if old, err = load(*oldPath); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, g := range gates {
		if g.min > 0 {
			below, err := floor(fresh, g.metric, g.min)
			if err != nil {
				fatal(err)
			}
			for _, b := range below {
				fmt.Printf("BELOW FLOOR      %s\n", b)
			}
			if len(below) > 0 {
				failed = true
				fmt.Printf("benchgate: %d %s series below the %.4g floor\n", len(below), g.metric, g.min)
			} else {
				fmt.Printf("benchgate: %d %s series at or above the %.4g floor\n",
					len(fresh.series(g.metric)), g.metric, g.min)
			}
			continue
		}
		c, err := compare(old, fresh, g.metric, *tol)
		if err != nil {
			fatal(err)
		}
		for _, m := range c.missing {
			fmt.Printf("MISSING          %s\n", m)
		}
		for _, m := range c.invalid {
			fmt.Printf("INVALID BASELINE %s\n", m)
		}
		for _, d := range c.drifts {
			verdict := "REGRESSION"
			if d.Ratio > 1 {
				verdict = "STALE BASELINE"
			}
			fmt.Printf("%-16s %-24s %.4g -> %.4g %s (%.2fx, tolerance ±%.0f%%)\n",
				verdict, d.Key, d.Old, d.New, g.metric, d.Ratio, *tol*100)
		}
		if c.failed() {
			failed = true
			fmt.Printf("benchgate: %s: %d drift(s), %d missing series, %d invalid baseline(s)\n",
				g.metric, len(c.drifts), len(c.missing), len(c.invalid))
		} else {
			fmt.Printf("benchgate: %d %s series within ±%.0f%% of %s\n",
				len(old.series(g.metric)), g.metric, *tol*100, *oldPath)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
