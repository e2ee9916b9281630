package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/config"
)

// maxGridPoints bounds an unsampled cross-product: a grid larger than
// this must opt into Latin-hypercube subsampling (WithSample) instead
// of silently enqueueing millions of points.
const maxGridPoints = 1 << 20

// AxisValue is one axis coordinate of a sweep point.
type AxisValue struct {
	Axis  string // axis name (a config knob or a WithMutatorAxis name)
	Value string // the swept value, as given
}

// Point is one configuration of a sweep: a coordinate per axis, in
// axis declaration order. Index is the point's stable position in the
// sweep's point list (the row-major grid position, or the sample
// position under WithSample); SortSweepResults restores it after
// parallel delivery.
type Point struct {
	Index  int
	Values []AxisValue
}

// Value returns the point's coordinate on a named axis.
func (p Point) Value(axis string) (string, bool) {
	for _, av := range p.Values {
		if av.Axis == axis {
			return av.Value, true
		}
	}
	return "", false
}

// String renders the point as "axis=value" pairs.
func (p Point) String() string {
	parts := make([]string, len(p.Values))
	for i, av := range p.Values {
		parts[i] = av.Axis + "=" + av.Value
	}
	return strings.Join(parts, " ")
}

// SweepResult is the outcome of one sweep point: the point's
// coordinates plus the full benchmark × scheme result matrix of
// the base experiment run under that configuration.
type SweepResult struct {
	Point   Point
	Results []Result
}

// sweepAxis pairs an axis's declared values with the mutation that
// applies one of them to a configuration.
type sweepAxis struct {
	name   string
	values []string
	apply  func(*Config, string) error
}

// Sweep is a declarative parameter sweep over a base experiment: the
// cross-product of its axes (optionally Latin-hypercube subsampled)
// expands into points, each point running the base experiment's
// benchmark × scheme matrix with the point's axis values applied on
// top of the base configuration. Trace-mode sweeps record each
// benchmark's trace once for the whole sweep, however many points
// replay it, and replay each replay-visible configuration once: points
// differing only in timing-model knobs share one replay through the
// provider's memo.
//
// A sweep runs on the plain Experiment runner's worker pool: every
// point's cells are jobs, queued point-major, that any worker may
// take, and the finished cells are regrouped by point so results
// arrive point-atomic.
type Sweep struct {
	base   *Experiment
	axes   []sweepAxis
	sample int
	seed   int64
}

// SweepOption configures a Sweep under construction.
type SweepOption func(*Sweep) error

// NewSweep validates the options and builds a Sweep over a base
// experiment (built with New; its suite, schemes, mode, commit budget,
// tag, parallelism and config mutator all carry over). At least one
// axis is required, and every axis value is dry-run against a scratch
// configuration so parse errors surface here, not per cell.
func NewSweep(base *Experiment, opts ...SweepOption) (*Sweep, error) {
	if base == nil {
		return nil, fmt.Errorf("sim: sweep needs a base experiment")
	}
	s := &Sweep{base: base}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if len(s.axes) == 0 {
		return nil, fmt.Errorf("sim: sweep needs at least one axis (WithAxis)")
	}
	// Axes apply in declaration order, so a knob that reads another
	// knob's field must come after it.
	if err := config.CheckOrder(s.AxisNames()); err != nil {
		return nil, fmt.Errorf("sim: axis order: %w", err)
	}
	for _, ax := range s.axes {
		for _, v := range ax.values {
			c := config.Default()
			if err := ax.apply(&c, v); err != nil {
				return nil, fmt.Errorf("sim: axis %s: %w", ax.name, err)
			}
		}
	}
	if n := s.gridSize(); s.sample == 0 && n > maxGridPoints {
		return nil, fmt.Errorf("sim: sweep grid has %d points; subsample with WithSample", n)
	}
	return s, nil
}

func (s *Sweep) addAxis(ax sweepAxis) error {
	if len(ax.values) == 0 {
		return fmt.Errorf("sim: axis %q needs at least one value", ax.name)
	}
	for _, prev := range s.axes {
		if prev.name == ax.name {
			return fmt.Errorf("sim: duplicate sweep axis %q", ax.name)
		}
	}
	s.axes = append(s.axes, ax)
	return nil
}

// formatValues renders axis values given as ints, strings, bools, ...
// into the string form the mutator contract parses.
func formatValues(values []any) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// WithAxis adds a named axis backed by one of the config knobs (see
// Knobs): WithAxis("pvt.entries", 256, 512, 1024) sweeps the predictor
// table size through three points.
func WithAxis(name string, values ...any) SweepOption {
	return func(s *Sweep) error {
		m, ok := config.ResolveMutator(name)
		if !ok {
			return fmt.Errorf("sim: unknown sweep axis %q (registered knobs: %v)", name, config.MutatorNames())
		}
		return s.addAxis(sweepAxis{name: name, values: formatValues(values), apply: m.Apply})
	}
}

// Knob describes one configuration knob (a WithAxis axis name), for
// listings.
type Knob struct {
	Name string
	Doc  string
}

// Knobs returns every config knob, sorted by name — the valid WithAxis
// axes.
func Knobs() []Knob {
	names := config.MutatorNames()
	out := make([]Knob, len(names))
	for i, n := range names {
		m, _ := config.ResolveMutator(n)
		out[i] = Knob{Name: m.Name, Doc: m.Doc}
	}
	return out
}

// WithMutatorAxis adds a free-form axis: apply receives each swept
// value as a string and may touch any Config field, so axes are not
// limited to the config knobs.
func WithMutatorAxis(name string, apply func(*Config, string) error, values ...any) SweepOption {
	return func(s *Sweep) error {
		if name == "" {
			return fmt.Errorf("sim: mutator axis needs a name")
		}
		if apply == nil {
			return fmt.Errorf("sim: mutator axis %q needs an apply function", name)
		}
		return s.addAxis(sweepAxis{name: name, values: formatValues(values), apply: apply})
	}
}

// WithSample switches the sweep from the full cross-product to a
// Latin-hypercube subsample of n points: each axis's values are
// stratified evenly across the sample and shuffled independently
// (deterministically, from seed), so every axis is covered uniformly
// even when the full grid is unaffordable. A sample at least as large
// as the grid falls back to the full grid.
func WithSample(n int, seed int64) SweepOption {
	return func(s *Sweep) error {
		if n < 1 {
			return fmt.Errorf("sim: sample size %d < 1", n)
		}
		s.sample = n
		s.seed = seed
		return nil
	}
}

// AxisNames returns the axis names in declaration order — the column
// order of the sweep sinks.
func (s *Sweep) AxisNames() []string {
	names := make([]string, len(s.axes))
	for i, ax := range s.axes {
		names[i] = ax.name
	}
	return names
}

// gridSize returns the full cross-product size (capped to avoid
// overflow).
func (s *Sweep) gridSize() int {
	n := 1
	for _, ax := range s.axes {
		if n > maxGridPoints { // further multiplication cannot shrink it
			return n
		}
		n *= len(ax.values)
	}
	return n
}

// Points expands the sweep into its point list: the row-major
// cross-product (first axis slowest), or the Latin-hypercube subsample
// when WithSample is in effect and smaller than the grid.
func (s *Sweep) Points() []Point {
	if s.sample > 0 && s.sample < s.gridSize() {
		return s.samplePoints()
	}
	return s.gridPoints()
}

func (s *Sweep) gridPoints() []Point {
	pts := make([]Point, s.gridSize())
	for i := range pts {
		vals := make([]AxisValue, len(s.axes))
		rem := i
		for j := len(s.axes) - 1; j >= 0; j-- {
			k := len(s.axes[j].values)
			vals[j] = AxisValue{Axis: s.axes[j].name, Value: s.axes[j].values[rem%k]}
			rem /= k
		}
		pts[i] = Point{Index: i, Values: vals}
	}
	return pts
}

// samplePoints draws the Latin-hypercube sample: per axis, a stratified
// value column (each value appearing ⌊n/k⌋ or ⌈n/k⌉ times) shuffled
// independently, then combined row-wise into points.
func (s *Sweep) samplePoints() []Point {
	n := s.sample
	rng := rand.New(rand.NewSource(s.seed))
	cols := make([][]string, len(s.axes))
	for j, ax := range s.axes {
		k := len(ax.values)
		col := make([]string, n)
		for i := 0; i < n; i++ {
			col[i] = ax.values[i*k/n]
		}
		rng.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
		cols[j] = col
	}
	pts := make([]Point, n)
	for i := range pts {
		vals := make([]AxisValue, len(s.axes))
		for j := range s.axes {
			vals[j] = AxisValue{Axis: s.axes[j].name, Value: cols[j][i]}
		}
		pts[i] = Point{Index: i, Values: vals}
	}
	return pts
}

// pointConfig returns a point's cell configuration builder: the
// scheme's base configuration with the point's axis mutations applied
// on top, in axis order.
func (s *Sweep) pointConfig(pt Point) func(string) (Config, error) {
	return func(scheme string) (Config, error) {
		c, err := s.base.baseConfig(scheme)
		if err != nil {
			return c, err
		}
		for j, av := range pt.Values {
			if err := s.axes[j].apply(&c, av.Value); err != nil {
				return c, fmt.Errorf("sim: point %d, axis %s: %w", pt.Index, av.Axis, err)
			}
		}
		return c, nil
	}
}

// SweepRunner is a started sweep: the experiment worker pool running
// every point's cells, streaming one SweepResult per completed point.
type SweepRunner struct {
	*pool
	results chan SweepResult
	points  int
}

// Results returns the stream of completed points. The channel closes
// once every point has finished or the context is cancelled; points
// arrive in completion order (see SortSweepResults), each with its
// cells in matrix order.
func (r *SweepRunner) Results() <-chan SweepResult { return r.results }

// Points returns the number of points in the sweep.
func (r *SweepRunner) Points() int { return r.points }

// Start prepares the workload (once, shared by every point) and
// launches the experiment worker pool over every point's cell jobs,
// point-major. In trace mode one shared provider records each
// benchmark's trace exactly once for the whole sweep — an N-point sweep
// over the full suite records 22 traces, not 22×N.
func (s *Sweep) Start(ctx context.Context) (*SweepRunner, error) {
	e := s.base
	wl, traces, err := e.prepare(ctx)
	if err != nil {
		return nil, err
	}
	pts := s.Points()
	var jobs []simJob
	perPoint := 0
	for _, pt := range pts {
		meta := manifestMeta{point: pt.Index, knobs: pointKnobs(pt)}
		if s.sample > 0 {
			meta.seed = s.seed
		}
		var js []simJob
		js, perPoint = e.buildJobs(wl, s.pointConfig(pt), meta)
		jobs = append(jobs, js...)
	}
	r := &SweepRunner{results: make(chan SweepResult, len(pts)), points: len(pts)}
	// cells collects each point's finished cells until its last one
	// arrives; a point cut short by cancellation is never delivered.
	cells := make([][]Result, len(pts))
	r.pool = e.launch(ctx, traces, jobs, len(pts)*perPoint, func(j simJob, rs []Result) {
		i := j.meta.point
		cells[i] = append(cells[i], rs...)
		if len(cells[i]) == perPoint {
			SortResults(cells[i])
			r.results <- SweepResult{Point: pts[i], Results: cells[i]}
		}
	}, func() { close(r.results) })
	return r, nil
}

// pointKnobs renders a point's axis coordinates as the manifest's
// knob map.
func pointKnobs(pt Point) map[string]string {
	if len(pt.Values) == 0 {
		return nil
	}
	knobs := make(map[string]string, len(pt.Values))
	for _, av := range pt.Values {
		knobs[av.Axis] = av.Value
	}
	return knobs
}

// Run starts the sweep, drains the stream, and returns every point in
// matrix order. It fails on cancellation but not on per-run errors
// (inspect each Result.Err, or let the aggregation layer surface
// them).
func (s *Sweep) Run(ctx context.Context) ([]SweepResult, error) {
	r, err := s.Start(ctx)
	if err != nil {
		return nil, err
	}
	var out []SweepResult
	for sr := range r.Results() {
		out = append(out, sr)
	}
	if err := r.Wait(); err != nil {
		return out, err
	}
	SortSweepResults(out)
	return out, nil
}

// SortSweepResults restores point order (and matrix order within each
// point) on a slice of streamed sweep results.
func SortSweepResults(rs []SweepResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Point.Index < rs[j].Point.Index })
	for i := range rs {
		SortResults(rs[i].Results)
	}
}
