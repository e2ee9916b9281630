// Command benchmark is the repository's performance benchmark: it runs
// the simulator the way its users do — sim.New/Start, sim.NewSweep and
// the CSV sinks the CLIs use — on four named workloads, and reports
// end-to-end metrics (wall time, throughput, set-up time) over
// several fresh child processes, plus per-layer metrics from one extra
// traced invocation. Every cell of every invocation is checked against
// a reference fingerprint. See README.md for the metric and workload
// definitions.
//
// Run from the repository root:
//
//	bash benchmark/run.sh                                  # all workloads, seed 0
//	bash benchmark/run.sh --workload figs-trace --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload sweep-grid -ab /path/to/parent-benchmark -pairs 10
//	bash benchmark/run.sh -update                          # rewrite the seed-0 reference
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A table of every metric with its unit
// goes to standard error.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minInvocations keeps a median meaningful however short --seconds is,
	// as long as they fit in runLimit.
	minInvocations = 3
	// runLimit bounds one workload's run, priming and the traced
	// invocation included, so that it ends within three minutes. No
	// invocation is started that would likely end past it: the slowest
	// takes ~8 s on a quiet host and four times that on a busy one.
	runLimit = 160 * time.Second
	// workDir holds build outputs and per-run scratch state.
	workDir = ".bench_build"
	// referencePath is where -update writes the seed-0 reference.
	referencePath = "benchmark/testdata/reference-seed0.json"
)

//go:embed testdata/reference-seed0.json
var referenceJSON []byte

func main() {
	var (
		wname    = flag.String("workload", "", "workload to run (empty = all four, one after another)")
		seed     = flag.Int64("seed", 0, "input seed: 0 = the specs verbatim, N > 0 adds N*1000 to every spec seed")
		seconds  = flag.Int("seconds", 15, "how long each workload measures")
		traceF   = flag.Int("trace", -1, "0 = end-to-end metrics, 1 = per-layer metrics, -1 = both")
		out      = flag.String("out", "", "write every sample, summary, span and host fact to this JSON file")
		ab       = flag.String("ab", "", "another build of this benchmark to compare against in interleaved pairs")
		pairs    = flag.Int("pairs", 10, "number of A/B pairs per workload")
		update   = flag.Bool("update", false, "rewrite "+referencePath+" from this build (seed 0 only)")
		child    = flag.Bool("child", false, "run one invocation in this process and print its report (used by the parent)")
		traceDir = flag.String("tracedir", "", "trace cache directory of a -child invocation")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	if *child {
		err = childMain(ctx, os.Stdout, *wname, *seed, *traceDir, *traceF == 1)
	} else {
		err = parentMain(ctx, options{
			workload: *wname, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			trace: *traceF, out: *out, ab: *ab, pairs: *pairs, update: *update,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    int
	out      string
	ab       string
	pairs    int
	update   bool
}

// outcome is one workload's measured run.
type outcome struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// Host holds the unscaled wall time and peak resident set of every
	// timed invocation and the time of every calibration run.
	Host   map[string]summary `json:"host"`
	Layers map[string]float64 `json:"per_layer,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	AB     []abRow            `json:"ab,omitempty"`
}

func parentMain(ctx context.Context, o options) error {
	if o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("--trace %d: want 0, 1 or -1", o.trace)
	}
	if o.seed < 0 {
		return fmt.Errorf("--seed %d < 0", o.seed)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ws := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	if o.update {
		return updateReference(ctx, exe, ws, o.seed)
	}
	var outs []*outcome
	for _, w := range ws {
		var oc *outcome
		if o.ab != "" {
			oc, err = compare(ctx, exe, o.ab, w, o.seed, o.pairs)
		} else {
			oc, err = measure(ctx, exe, w, o.seed, o.seconds, o.trace != 0)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		outs = append(outs, oc)
	}
	printTable(os.Stderr, outs)
	if o.out != "" {
		doc := struct {
			Host      map[string]string `json:"host"`
			Seed      int64             `json:"seed"`
			Seconds   float64           `json:"seconds"`
			Workloads []*outcome        `json:"workloads"`
		}{hostFacts(), o.seed, o.seconds.Seconds(), outs}
		if err := writeFile(o.out, doc); err != nil {
			return err
		}
	}
	return writeJSON(os.Stdout, resultLine(outs, o.trace))
}

// sample is one timed invocation as the parent saw it.
type sample struct {
	rep   *report
	rssMB float64
}

// endToEnd is the invocation's value of every end-to-end metric, its
// times multiplied by scale.
func (s sample) endToEnd(scale float64) map[string]float64 {
	wall := float64(s.rep.WallNS) * scale
	return map[string]float64{
		"wall_s":   wall / 1e9,
		"sim_mips": float64(s.rep.Committed) / wall * 1e3,
		"setup_s":  float64(s.rep.SetupNS) * scale / 1e9,
	}
}

// endToEndSummaries summarizes a run's invocations with their times
// scaled to the reference host speed by the run's median calibration
// time in milliseconds (see calibrate).
func endToEndSummaries(samples []sample, calMS float64) map[string]summary {
	scale := float64(calibrationRef) / 1e6 / calMS
	out := map[string]summary{}
	for _, d := range endToEnd {
		var vs []float64
		for _, s := range samples {
			vs = append(vs, s.endToEnd(scale)[d.Name])
		}
		out[d.Name] = summarize(vs)
	}
	return out
}

// newOutcome summarizes a run's timed invocations and the calibration
// runs around them.
func newOutcome(w *workload, samples []sample, cal []float64) *outcome {
	var wall, rss []float64
	for _, s := range samples {
		wall = append(wall, float64(s.rep.WallNS)/1e9)
		rss = append(rss, s.rssMB)
	}
	host := map[string]summary{
		"wall_s":         summarize(wall),
		"calibration_ms": summarize(cal),
		"peak_rss_mb":    summarize(rss),
	}
	return &outcome{
		Workload: w.name,
		EndToEnd: endToEndSummaries(samples, host["calibration_ms"].Median),
		Host:     host,
	}
}

// layerMetrics completes a traced invocation's per-layer metrics with
// the untraced invocations' unscaled median wall time, calibration time
// and peak resident set, and the tracing overhead against that wall
// time. Peak RSS repeats within 1% for one seed but differs by up to
// 50% between seeds, too much for a bounded end-to-end metric.
func layerMetrics(traced *report, host map[string]summary) map[string]float64 {
	L := map[string]float64{}
	for k, v := range traced.Layers {
		L[k] = v
	}
	L["go.peak_rss_mb"] = host["peak_rss_mb"].Median
	L["host.wall_s"] = host["wall_s"].Median
	L["host.calibration_ms"] = host["calibration_ms"].Median
	L["sim.tracing_overhead_pct"] = 100 * (float64(traced.WallNS)/1e9/L["host.wall_s"] - 1)
	return L
}

// checker decides which cells failed: a cell fails when its Result.Err
// is set, its fingerprint differs from the reference (seed 0) or from
// the first invocation of the run (other seeds), or its invocation
// crashed or timed out.
type checker struct {
	want              map[string]string
	attempted, failed int
}

func newChecker(w *workload, seed int64) (*checker, error) {
	c := &checker{}
	if seed != 0 {
		return c, nil
	}
	refs, err := references()
	if err != nil {
		return nil, err
	}
	if c.want = refs[w.name]; c.want == nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s has no seed-0 reference; comparing invocations with each other\n", w.name)
	}
	return c, nil
}

func (c *checker) check(rep *report, err error) {
	if err != nil {
		n := max(1, len(c.want))
		c.attempted += n
		c.failed += n
		fmt.Fprintln(os.Stderr, "benchmark: invocation failed:", err)
		return
	}
	if c.want == nil {
		c.want = map[string]string{}
		for _, cl := range rep.Cells {
			c.want[cl.Key] = cl.Hash
		}
	}
	got := map[string]bool{}
	for _, cl := range rep.Cells {
		got[cl.Key] = true
		c.attempted++
		switch want, ok := c.want[cl.Key]; {
		case cl.Err != "":
			c.failed++
			fmt.Fprintf(os.Stderr, "benchmark: cell %s: %s\n", cl.Key, cl.Err)
		case !ok || want != cl.Hash:
			c.failed++
			fmt.Fprintf(os.Stderr, "benchmark: cell %s: fingerprint %s, want %q\n", cl.Key, cl.Hash, want)
		}
	}
	var missing []string
	for k := range c.want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		c.attempted++
		c.failed++
		fmt.Fprintf(os.Stderr, "benchmark: cell %s missing\n", k)
	}
}

// references decodes the embedded seed-0 reference: workload -> cell
// key -> fingerprint.
func references() (map[string]map[string]string, error) {
	refs := map[string]map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("decode reference: %w", err)
	}
	return refs, nil
}

// scratch makes a per-run state directory inside the working directory;
// the caller removes it.
func scratch() (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, "state-")
}

// invoke runs one invocation in a fresh child process and reads its
// report and peak resident set size. No invocation may outlast a run.
func invoke(ctx context.Context, exe string, w *workload, seed int64, traceDir string, traced bool) (sample, error) {
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-tracedir", traceDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", parallelism))
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	s := sample{rep: &report{}}
	if err := json.Unmarshal(stdout, s.rep); err != nil {
		return sample{}, fmt.Errorf("%s child report: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// invocations hands out trace directories for one run: the shared
// primed cache, or a fresh empty one per invocation for cold workloads.
type invocations struct {
	w     *workload
	state string
	n     int
}

func (iv *invocations) traceDir() string {
	if iv.w.traces == coldTraces {
		iv.n++
		return filepath.Join(iv.state, fmt.Sprintf("cold-%d", iv.n))
	}
	return filepath.Join(iv.state, "traces")
}

// done drops a cold invocation's cache.
func (iv *invocations) done(dir string) {
	if iv.w.traces == coldTraces {
		os.RemoveAll(dir)
	}
}

// measure runs one workload for the given time: a priming invocation
// where the workload reads a warm trace cache, timed invocations until
// the time is up (at least minInvocations), then one traced invocation
// when per-layer metrics are wanted. Timed invocations stop early when
// the next one, and the traced one, would likely end past runLimit.
func measure(ctx context.Context, exe string, w *workload, seed int64, seconds time.Duration, traced bool) (*outcome, error) {
	deadline := time.Now().Add(runLimit)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	state, err := scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(state)
	chk, err := newChecker(w, seed)
	if err != nil {
		return nil, err
	}
	iv := &invocations{w: w, state: state}
	var longest time.Duration
	one := func(traced bool) sample {
		dir := iv.traceDir()
		defer iv.done(dir)
		t0 := time.Now()
		s, err := invoke(ctx, exe, w, seed, dir, traced)
		longest = max(longest, time.Since(t0))
		chk.check(s.rep, err)
		return s
	}
	// fits reports whether n more invocations as long as the longest so
	// far would likely end before the deadline.
	fits := func(n int) bool { return time.Until(deadline) > time.Duration(n)*longest*5/4 }
	after := 0
	if traced {
		after = 1
	}
	if w.traces == warmTraces {
		one(false)
	}
	var samples []sample
	cal := calibrate(0)
	start := time.Now()
	for i := 0; i == 0 || (i < minInvocations || time.Since(start) < seconds) && fits(1+after); i++ {
		if s := one(false); s.rep != nil {
			samples = append(samples, s)
			// Sample the host for about a tenth of the invocation's time, so
			// it is sampled as densely around a long invocation as a short one.
			cal = append(cal, calibrate(time.Duration(s.rep.WallNS)/10)...)
		}
	}
	if len(samples) == 0 {
		return nil, errors.New("no invocation completed")
	}
	oc := newOutcome(w, samples, cal)
	if traced {
		if s := one(true); s.rep != nil {
			oc.Layers = layerMetrics(s.rep, oc.Host)
			oc.Spans = s.rep.Spans
		}
	}
	oc.Attempted, oc.Failed = chk.attempted, chk.failed
	return oc, nil
}

// updateReference rewrites the seed-0 reference for the given
// workloads from one fresh invocation each, keeping the others.
func updateReference(ctx context.Context, exe string, ws []*workload, seed int64) error {
	if seed != 0 {
		return fmt.Errorf("-update writes the seed-0 reference; got --seed %d", seed)
	}
	refs, err := references()
	if err != nil {
		return err
	}
	for _, w := range ws {
		state, err := scratch()
		if err != nil {
			return err
		}
		s, err := invoke(ctx, exe, w, 0, filepath.Join(state, "traces"), false)
		os.RemoveAll(state)
		if err != nil {
			return err
		}
		cells := map[string]string{}
		for _, c := range s.rep.Cells {
			if c.Err != "" {
				return fmt.Errorf("%s: cell %s: %s", w.name, c.Key, c.Err)
			}
			cells[c.Key] = c.Hash
		}
		refs[w.name] = cells
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d cells\n", w.name, len(cells))
	}
	return writeFile(referencePath, refs)
}

// resultLine is the last line of standard output. With one workload the
// metric names are bare; with several they are prefixed by the workload.
func resultLine(outs []*outcome, trace int) any {
	metrics := map[string]any{}
	attempted, failed := 0, 0
	for _, oc := range outs {
		attempted += oc.Attempted
		failed += oc.Failed
		name := func(m string) string {
			if len(outs) == 1 {
				return m
			}
			return oc.Workload + "." + m
		}
		if trace != 1 {
			for _, d := range endToEnd {
				metrics[name(d.Name)] = map[string]any{"value": oc.EndToEnd[d.Name].Median, "unit": d.Unit}
			}
		}
		if trace != 0 && oc.Layers != nil {
			for _, d := range perLayer {
				metrics[name(d.Name)] = map[string]any{"value": oc.Layers[d.Name], "unit": d.Unit}
			}
		}
	}
	return map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
}

// printTable writes every metric by name with its unit.
func printTable(w io.Writer, outs []*outcome) {
	for _, oc := range outs {
		fmt.Fprintf(w, "\n%s: %d cells attempted, %d failed (error_rate %.4g)\n", oc.Workload, oc.Attempted, oc.Failed,
			float64(oc.Failed)/float64(max(1, oc.Attempted)))
		for _, d := range endToEnd {
			s := oc.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-40s %14.6g %-10s [q1 %.6g, q3 %.6g] n=%d\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N)
		}
		if oc.Layers != nil {
			for _, d := range perLayer {
				fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, oc.Layers[d.Name], d.Unit)
			}
		}
		for _, r := range oc.AB {
			fmt.Fprintf(w, "  A/B %-24s this %-12.6g other %-12.6g %-10s wins %4.0f%%  %s\n",
				r.Metric, r.This.Median, r.Other.Median, r.Unit, 100*r.WinFrac, r.Verdict)
		}
	}
}

// hostFacts records what the numbers were measured on.
func hostFacts() map[string]string {
	facts := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(parallelism),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				facts["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		facts["commit"] = strings.TrimSpace(string(b))
	}
	return facts
}

// writeJSON writes v as one line of JSON.
func writeJSON(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// writeFile writes v as indented JSON to path.
func writeFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
