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
// whose absolute speed varies.
//
//	benchgate -old BENCH_trace.json.committed -new BENCH_trace.json -metric speedup -tol 0.30
//
// -metric repeats, so one invocation gates every metric CI cares
// about.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDoc mirrors the layout bench_test.go's writeTraceBenchJSON
// emits; unknown fields are ignored.
type benchDoc struct {
	Benchmark       string                        `json:"benchmark"`
	InstrsPerSecond map[string]map[string]float64 `json:"instrs_per_second"`
	Speedup         map[string]float64            `json:"trace_mode_speedup"`
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
	}
	return out
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

// gateList collects repeated -metric flags.
type gateList []string

func (g *gateList) String() string { return strings.Join(*g, ",") }

func (g *gateList) Set(v string) error {
	if !validMetrics[v] {
		return fmt.Errorf("metric %q must be ips or speedup", v)
	}
	for _, prev := range *g {
		if prev == v {
			return fmt.Errorf("metric %q given twice", v)
		}
	}
	*g = append(*g, v)
	return nil
}

var validMetrics = map[string]bool{"ips": true, "speedup": true}

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
		oldPath = flag.String("old", "", "committed benchmark JSON (the baseline)")
		newPath = flag.String("new", "BENCH_trace.json", "freshly generated benchmark JSON")
		tol     = flag.Float64("tol", 0.30, "relative tolerance band around the baseline")
	)
	flag.Var(&gates, "metric", "what to gate, repeatable: ips (absolute instrs/s; like hardware only) or speedup (trace/pipeline ratio)")
	flag.Parse()
	if len(gates) == 0 {
		gates = gateList{"ips"}
	}
	if *oldPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old is required")
		os.Exit(2)
	}
	if *tol <= 0 || *tol >= 1 {
		fmt.Fprintf(os.Stderr, "benchgate: -tol %v must be in (0, 1)\n", *tol)
		os.Exit(2)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	old, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	failed := false
	for _, metric := range gates {
		c, err := compare(old, fresh, metric, *tol)
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
				verdict, d.Key, d.Old, d.New, metric, d.Ratio, *tol*100)
		}
		if c.failed() {
			failed = true
			fmt.Printf("benchgate: %s: %d drift(s), %d missing series, %d invalid baseline(s)\n",
				metric, len(c.drifts), len(c.missing), len(c.invalid))
		} else {
			fmt.Printf("benchgate: %d %s series within ±%.0f%% of %s\n",
				len(old.series(metric)), metric, *tol*100, *oldPath)
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
