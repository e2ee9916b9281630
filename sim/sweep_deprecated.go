package sim

import (
	"context"
	"fmt"
	"io"
)

// This file keeps the sweep API that predates axes on Experiment, as
// thin wrappers over the one result stream. Its last caller is the
// benchmark/ module, which pins the façade it measures and changes only
// with the benchmark itself; nothing else may use these names.

// SweepOption is an Option.
//
// Deprecated: pass WithAxis and WithSample to New.
// Kept for benchmark/, its last caller.
type SweepOption = Option

// Sweep is an experiment with axes.
//
// Deprecated: build the experiment with New and its axis options.
// Kept for benchmark/, its last caller.
type Sweep struct{ e *Experiment }

// NewSweep returns base with opts (at least one axis) added.
//
// Deprecated: pass the axis options to New. Kept for benchmark/, its
// last caller.
func NewSweep(base *Experiment, opts ...SweepOption) (*Sweep, error) {
	if base == nil {
		return nil, fmt.Errorf("sim: sweep needs a base experiment")
	}
	e := *base
	e.axes = append([]axis(nil), base.axes...)
	for _, opt := range opts {
		if err := opt(&e); err != nil {
			return nil, err
		}
	}
	if len(e.axes) == 0 {
		return nil, fmt.Errorf("sim: sweep needs at least one axis (WithAxis)")
	}
	if err := e.checkAxes(); err != nil {
		return nil, err
	}
	return &Sweep{e: &e}, nil
}

// AxisNames returns the axis names in declaration order.
//
// Deprecated: use Experiment.AxisNames. Kept for benchmark/, its last
// caller.
func (s *Sweep) AxisNames() []string { return s.e.AxisNames() }

// SweepResult is one cell with its point.
//
// Deprecated: Result carries its Point. Kept for benchmark/, its last
// caller.
type SweepResult struct {
	Point   Point
	Results []Result // exactly one cell
}

// SweepRunner streams an experiment's cells as SweepResults.
//
// Deprecated: use Runner. Kept for benchmark/, its last caller.
type SweepRunner struct {
	r       *Runner
	results chan SweepResult
}

// Start starts the experiment and wraps each streamed cell in a
// SweepResult.
//
// Deprecated: use Experiment.Start. Kept for benchmark/, its last
// caller.
func (s *Sweep) Start(ctx context.Context) (*SweepRunner, error) {
	r, err := s.e.start(ctx, s.e.runJob)
	if err != nil {
		return nil, err
	}
	sr := &SweepRunner{r: r, results: make(chan SweepResult, r.Total())}
	go func() {
		defer close(sr.results)
		for res := range r.Results() {
			sr.results <- SweepResult{Point: res.Point, Results: []Result{res}}
		}
	}()
	return sr, nil
}

// Results returns the stream of completed cells.
//
// Deprecated: use Runner.Results. Kept for benchmark/, its last caller.
func (r *SweepRunner) Results() <-chan SweepResult { return r.results }

// Wait is Runner.Wait.
//
// Deprecated: use Runner.Wait. Kept for benchmark/, its last caller.
func (r *SweepRunner) Wait() error { return r.r.Wait() }

// SweepSink feeds SweepResults to a Sink.
//
// Deprecated: use Sink. Kept for benchmark/, its last caller.
type SweepSink struct{ s Sink }

// NewSweepCSVSink is NewCSVSink with axes.
//
// Deprecated: use NewCSVSink. Kept for benchmark/, its last caller.
func NewSweepCSVSink(w io.Writer, axes []string) SweepSink {
	return SweepSink{NewCSVSink(w, axes...)}
}

// ObservedSweepSink is ObservedSink.
//
// Deprecated: use ObservedSink. Kept for benchmark/, its last caller.
func ObservedSweepSink(o *Observer, s SweepSink) SweepSink {
	return SweepSink{ObservedSink(o, s.s)}
}

// Emit emits every cell of sr.
//
// Deprecated: use Sink.Emit. Kept for benchmark/, its last caller.
func (s SweepSink) Emit(sr SweepResult) error {
	for _, r := range sr.Results {
		if err := s.s.Emit(r); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the underlying sink.
//
// Deprecated: use Sink.Close. Kept for benchmark/, its last caller.
func (s SweepSink) Close() error { return s.s.Close() }
