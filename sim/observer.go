package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// MetricsSnapshot is a deterministic, name-sorted point-in-time copy
// of a metrics registry (see internal/obs): counters, gauges and
// power-of-two histograms, serialized the same way however the
// underlying maps iterated.
type MetricsSnapshot = obs.Snapshot

// RunManifest attributes one simulated cell: identity (benchmark,
// scheme, mode, knob values, spec hash, seed), execution record
// (cache outcome, phase timings, committed instructions, instrs/s)
// and any per-cell error — one NDJSON line per result row.
type RunManifest = obs.Manifest

// Span phase names, re-exported so façade consumers can key into
// Progress output, manifest PhasesNS maps and span histograms without
// importing internal packages.
const (
	PhasePrepare     = obs.PhasePrepare
	PhaseCacheLookup = obs.PhaseCacheLookup
	PhaseRecord      = obs.PhaseRecord
	PhaseDecode      = obs.PhaseDecode
	PhaseFrontend    = obs.PhaseFrontend
	PhaseEngine      = obs.PhaseEngine
	PhasePipeline    = obs.PhasePipeline
	PhaseSink        = obs.PhaseSink
)

// Observer collects per-run telemetry for one experiment or sweep: a
// private metrics registry (span histograms and run counters, so
// concurrent experiments don't blur together), an injectable clock,
// and a buffer of run manifests. Attach one with WithObserver (or
// ProgramRun.Observer); every method is safe for concurrent use and a
// nil *Observer is inert, so instrumented code paths need no guards.
type Observer struct {
	reg   *obs.Registry
	clock func() int64

	runsCompleted  *obs.Counter
	runsFailed     *obs.Counter
	cacheHits      *obs.Counter
	cacheRecords   *obs.Counter
	frontendHits   *obs.Counter
	frontendBuilds *obs.Counter
	spans          map[string]*obs.Histogram

	mu        sync.Mutex
	manifests []RunManifest
}

// NewObserver returns an Observer on the process monotonic clock.
func NewObserver() *Observer { return NewObserverWithClock(nil) }

// NewObserverWithClock returns an Observer reading time from now
// (monotonic nanoseconds; only differences are used). A nil now means
// the process monotonic clock. Tests inject a fake so two identical
// runs produce byte-identical metrics and manifests.
func NewObserverWithClock(now func() int64) *Observer {
	if now == nil {
		now = obs.Nanotime
	}
	r := obs.NewRegistry()
	return &Observer{
		reg:            r,
		clock:          now,
		runsCompleted:  r.Counter("runs.completed"),
		runsFailed:     r.Counter("runs.failed"),
		cacheHits:      r.Counter("trace.cache.hits"),
		cacheRecords:   r.Counter("trace.cache.records"),
		frontendHits:   r.Counter("frontend.cache.hits"),
		frontendBuilds: r.Counter("frontend.cache.builds"),
		spans: map[string]*obs.Histogram{
			PhasePrepare:     r.Histogram("span.prepare.ns"),
			PhaseCacheLookup: r.Histogram("span.cache-lookup.ns"),
			PhaseRecord:      r.Histogram("span.trace-record.ns"),
			PhaseDecode:      r.Histogram("span.decode.ns"),
			PhaseFrontend:    r.Histogram("span.frontend.ns"),
			PhaseEngine:      r.Histogram("span.engine.ns"),
			PhasePipeline:    r.Histogram("span.pipeline.ns"),
			PhaseSink:        r.Histogram("span.sink.ns"),
		},
	}
}

// now reads the observer's clock; nil-safe (falls back to the process
// monotonic clock, so un-observed runners still get Progress.Elapsed).
func (o *Observer) now() int64 {
	if o == nil {
		return obs.Nanotime()
	}
	return o.clock()
}

// span accumulates one phase duration; nil-safe no-op.
func (o *Observer) span(phase string, ns int64) {
	if o == nil {
		return
	}
	if h := o.spans[phase]; h != nil {
		h.ObserveNS(ns)
	}
}

// finishRun counts one completed cell; nil-safe no-op.
func (o *Observer) finishRun(err error) {
	if o == nil {
		return
	}
	if err != nil {
		o.runsFailed.Inc()
	} else {
		o.runsCompleted.Inc()
	}
}

// cacheOutcome counts one trace acquisition by provenance; nil-safe.
func (o *Observer) cacheOutcome(outcome string) {
	if o == nil {
		return
	}
	switch outcome {
	case "hit":
		o.cacheHits.Inc()
	case "record":
		o.cacheRecords.Inc()
	}
}

// frontendOutcome counts one frontend-artifact acquisition by
// provenance ("hit" from the disk tier, "build" from a fresh frontend
// pass); nil-safe.
func (o *Observer) frontendOutcome(outcome string) {
	if o == nil {
		return
	}
	switch outcome {
	case "hit":
		o.frontendHits.Inc()
	case "build":
		o.frontendBuilds.Inc()
	}
}

// emit buffers one run manifest; nil-safe no-op.
func (o *Observer) emit(m RunManifest) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.manifests = append(o.manifests, m)
	o.mu.Unlock()
}

// Metrics snapshots the observer's own registry (per-run spans and
// counters; process-wide metrics are ProcessMetrics).
func (o *Observer) Metrics() MetricsSnapshot { return o.reg.Snapshot() }

// Manifests returns a copy of the buffered run manifests in canonical
// order (sweep point, then cell sequence), independent of the
// completion order the workers produced them in.
func (o *Observer) Manifests() []RunManifest {
	o.mu.Lock()
	out := append([]RunManifest(nil), o.manifests...)
	o.mu.Unlock()
	obs.SortManifests(out)
	return out
}

// WriteManifests writes the buffered manifests as NDJSON in canonical
// order.
func (o *Observer) WriteManifests(w io.Writer) error {
	o.mu.Lock()
	ms := append([]RunManifest(nil), o.manifests...)
	o.mu.Unlock()
	return obs.WriteManifests(w, ms)
}

// WriteMetrics writes one expvar-style JSON document combining the
// observer's run-scoped snapshot with the process-wide registry
// (trace cache counters and anything else subsystems registered).
func (o *Observer) WriteMetrics(w io.Writer) error {
	doc := struct {
		Run     MetricsSnapshot `json:"run"`
		Process MetricsSnapshot `json:"process"`
	}{Run: o.Metrics(), Process: ProcessMetrics()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteMetricsFile writes the WriteMetrics document to a file (the
// -metrics flag on the CLIs), creating parent directories as needed.
func (o *Observer) WriteMetricsFile(path string) error {
	return writeFileVia(path, o.WriteMetrics)
}

// WriteManifestsFile writes the buffered manifests as NDJSON to a
// file (the -manifest flag on the CLIs), creating parent directories
// as needed.
func (o *Observer) WriteManifestsFile(path string) error {
	return writeFileVia(path, o.WriteManifests)
}

// writeFileVia creates path (and its directory) and streams write
// into it.
func writeFileVia(path string, write func(io.Writer) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ProcessMetrics snapshots the process-wide metrics registry — the
// trace subsystem's cache/recording counters live there.
func ProcessMetrics() MetricsSnapshot { return obs.Default().Snapshot() }

// StartCPUProfile begins a CPU profile writing to path; call the
// returned stop function once, after the runs of interest (the
// -cpuprofile flag on the CLIs).
func StartCPUProfile(path string) (stop func() error, err error) {
	return obs.StartCPUProfile(path)
}

// WriteHeapProfile writes a heap profile to path (the -memprofile
// flag on the CLIs).
func WriteHeapProfile(path string) error { return obs.WriteHeapProfile(path) }

// WithObserver attaches an observer to the experiment: phase spans,
// run counters and one manifest per result row, on the observer's
// clock. The same observer may watch several experiments; their
// manifests interleave in canonical order.
func WithObserver(o *Observer) Option {
	return func(e *Experiment) error {
		if o == nil {
			return fmt.Errorf("sim: nil observer")
		}
		e.observer = o
		return nil
	}
}

// manifestMeta carries the sweep-point identity down to the cell
// runners: the point index (-1 outside sweeps), the sampling seed and
// the point's knob values.
type manifestMeta struct {
	point int
	seed  int64
	knobs map[string]string
}

// noMeta is the plain (non-sweep) runner's manifest identity.
var noMeta = manifestMeta{point: -1}

// durations converts clock nanoseconds to a time.Duration for
// Progress reporting.
func durationNS(ns int64) time.Duration { return time.Duration(ns) }

// observedSink wraps a Sink, timing Emit and Close into the sink
// span.
type observedSink struct {
	o *Observer
	s Sink
}

// ObservedSink returns a Sink that forwards to s and accumulates the
// time spent emitting into the observer's sink span. A nil observer
// returns s unchanged.
func ObservedSink(o *Observer, s Sink) Sink {
	if o == nil {
		return s
	}
	return observedSink{o: o, s: s}
}

func (w observedSink) Emit(r Result) error {
	t0 := w.o.now()
	err := w.s.Emit(r)
	w.o.span(PhaseSink, w.o.now()-t0)
	return err
}

func (w observedSink) Close() error {
	t0 := w.o.now()
	err := w.s.Close()
	w.o.span(PhaseSink, w.o.now()-t0)
	return err
}

// observedSweepSink is observedSink for SweepSinks.
type observedSweepSink struct {
	o *Observer
	s SweepSink
}

// ObservedSweepSink returns a SweepSink that forwards to s and
// accumulates emission time into the observer's sink span. A nil
// observer returns s unchanged.
func ObservedSweepSink(o *Observer, s SweepSink) SweepSink {
	if o == nil {
		return s
	}
	return observedSweepSink{o: o, s: s}
}

func (w observedSweepSink) Emit(sr SweepResult) error {
	t0 := w.o.now()
	err := w.s.Emit(sr)
	w.o.span(PhaseSink, w.o.now()-t0)
	return err
}

func (w observedSweepSink) Close() error {
	t0 := w.o.now()
	err := w.s.Close()
	w.o.span(PhaseSink, w.o.now()-t0)
	return err
}
