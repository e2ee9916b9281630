package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/config"
)

// maxGridPoints bounds the points an experiment expands into: a grid
// larger than this must opt into Latin-hypercube subsampling
// (WithSample) instead of silently enqueueing millions of points, and a
// sample may not exceed it either.
const maxGridPoints = 1 << 20

// AxisValue is one axis coordinate of a sweep point.
type AxisValue struct {
	Axis  string // axis name (a config knob or a WithMutatorAxis name)
	Value string // the swept value, as given
}

// Point is one configuration of an experiment: a coordinate per axis,
// in axis declaration order. Index is the point's stable position in
// the point list (the row-major grid position, or the sample position
// under WithSample); SortResults restores it after parallel delivery.
// An experiment without axes has one point, the zero Point.
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

// id is the point as run manifests and Progress report it: its index,
// or -1 for the empty point of an experiment without axes.
func (p Point) id() int {
	if len(p.Values) == 0 {
		return -1
	}
	return p.Index
}

// knobs renders the point's coordinates as the manifest's knob map.
func (p Point) knobs() map[string]string {
	if len(p.Values) == 0 {
		return nil
	}
	knobs := make(map[string]string, len(p.Values))
	for _, av := range p.Values {
		knobs[av.Axis] = av.Value
	}
	return knobs
}

// axis pairs an axis's declared values with the mutation that applies
// one of them to a configuration.
type axis struct {
	name   string
	values []string
	apply  func(*Config, string) error
}

func (e *Experiment) addAxis(ax axis) error {
	if len(ax.values) == 0 {
		return fmt.Errorf("sim: axis %q needs at least one value", ax.name)
	}
	for _, prev := range e.axes {
		if prev.name == ax.name {
			return fmt.Errorf("sim: duplicate sweep axis %q", ax.name)
		}
	}
	e.axes = append(e.axes, ax)
	return nil
}

// checkAxes validates the axes as a whole: their order, every value
// dry-run against a scratch configuration (so parse errors surface at
// New, not per cell), and the grid's size.
func (e *Experiment) checkAxes() error {
	if e.sample > 0 && len(e.axes) == 0 {
		return fmt.Errorf("sim: WithSample needs at least one axis (WithAxis)")
	}
	// Axes apply in declaration order, so a knob that reads another
	// knob's field must come after it.
	if err := config.CheckOrder(e.AxisNames()); err != nil {
		return fmt.Errorf("sim: axis order: %w", err)
	}
	for _, ax := range e.axes {
		for _, v := range ax.values {
			c := config.Default()
			if err := ax.apply(&c, v); err != nil {
				return fmt.Errorf("sim: axis %s: %w", ax.name, err)
			}
		}
	}
	if e.sample == 0 && e.gridSize() > maxGridPoints {
		return fmt.Errorf("sim: sweep grid has more than %d points; subsample with WithSample", maxGridPoints)
	}
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
// Knobs): WithAxis("pvt.entries", 256, 512, 1024) runs the benchmark ×
// scheme matrix at three points. Axes cross into a grid.
func WithAxis(name string, values ...any) Option {
	return func(e *Experiment) error {
		m, ok := config.ResolveMutator(name)
		if !ok {
			return fmt.Errorf("sim: unknown sweep axis %q (registered knobs: %v)", name, config.MutatorNames())
		}
		return e.addAxis(axis{name: name, values: formatValues(values), apply: m.Apply})
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
// limited to the config knobs. New dry-runs apply on every value; Start
// then calls it once per (point, scheme), on its own goroutine, when it
// plans the experiment.
func WithMutatorAxis(name string, apply func(*Config, string) error, values ...any) Option {
	return func(e *Experiment) error {
		if name == "" {
			return fmt.Errorf("sim: mutator axis needs a name")
		}
		if apply == nil {
			return fmt.Errorf("sim: mutator axis %q needs an apply function", name)
		}
		return e.addAxis(axis{name: name, values: formatValues(values), apply: apply})
	}
}

// WithSample switches the axes from their full cross-product to a
// Latin-hypercube subsample of n points: each axis's values are
// stratified evenly across the sample and shuffled independently
// (deterministically, from seed), so every axis is covered uniformly
// even when the full grid is unaffordable. A sample at least as large
// as the grid falls back to the full grid; n may not exceed 2^20.
func WithSample(n int, seed int64) Option {
	return func(e *Experiment) error {
		if n < 1 || n > maxGridPoints {
			return fmt.Errorf("sim: sample size %d outside 1..%d", n, maxGridPoints)
		}
		e.sample = n
		e.seed = seed
		return nil
	}
}

// AxisNames returns the axis names in declaration order — the axis
// column order of the sinks.
func (e *Experiment) AxisNames() []string {
	names := make([]string, len(e.axes))
	for i, ax := range e.axes {
		names[i] = ax.name
	}
	return names
}

// gridSize returns the full cross-product size, saturating at
// maxGridPoints+1.
func (e *Experiment) gridSize() int {
	n := 1
	for _, ax := range e.axes {
		n *= len(ax.values)
		if n > maxGridPoints {
			return maxGridPoints + 1
		}
	}
	return n
}

// Points expands the axes into the experiment's point list: the
// row-major cross-product (first axis slowest), or the Latin-hypercube
// subsample when WithSample is in effect and smaller than the grid.
// Without axes it is the one empty point.
func (e *Experiment) Points() []Point {
	if len(e.axes) == 0 {
		return []Point{{}}
	}
	if e.sample > 0 && e.sample < e.gridSize() {
		return e.samplePoints()
	}
	return e.gridPoints()
}

func (e *Experiment) gridPoints() []Point {
	pts := make([]Point, e.gridSize())
	for i := range pts {
		vals := make([]AxisValue, len(e.axes))
		rem := i
		for j := len(e.axes) - 1; j >= 0; j-- {
			k := len(e.axes[j].values)
			vals[j] = AxisValue{Axis: e.axes[j].name, Value: e.axes[j].values[rem%k]}
			rem /= k
		}
		pts[i] = Point{Index: i, Values: vals}
	}
	return pts
}

// samplePoints draws the Latin-hypercube sample: per axis, a stratified
// value column (each value appearing ⌊n/k⌋ or ⌈n/k⌉ times) shuffled
// independently, then combined row-wise into points.
func (e *Experiment) samplePoints() []Point {
	n := e.sample
	rng := rand.New(rand.NewSource(e.seed))
	cols := make([][]string, len(e.axes))
	for j, ax := range e.axes {
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
		vals := make([]AxisValue, len(e.axes))
		for j := range e.axes {
			vals[j] = AxisValue{Axis: e.axes[j].name, Value: cols[j][i]}
		}
		pts[i] = Point{Index: i, Values: vals}
	}
	return pts
}

// cellConfig builds one cell's configuration: the scheme's base
// configuration with the point's axis mutations applied on top, in
// axis order.
func (e *Experiment) cellConfig(pt Point, scheme string) (Config, error) {
	c, err := e.baseConfig(scheme)
	if err != nil {
		return c, err
	}
	for j, av := range pt.Values {
		if err := e.axes[j].apply(&c, av.Value); err != nil {
			return c, fmt.Errorf("sim: point %d, axis %s: %w", pt.Index, av.Axis, err)
		}
	}
	return c, nil
}
