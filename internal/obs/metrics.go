// Package obs is the simulator's stdlib-only instrumentation
// subsystem: a metrics registry of atomic counters and histograms with
// deterministic snapshot ordering, a run-lifecycle span taxonomy
// timing each phase of a simulation, structured NDJSON run manifests
// attributing every result row of an experiment or sweep, and
// pprof-based profiling hooks.
//
// The package sits below everything else in the layering (it imports
// only the standard library), so any internal package may count into
// it without cycles; consumers outside the module reach it through
// the repro/sim façade (sim.Observer, sim.MetricsSnapshot).
//
// Two invariants shape the design:
//
//   - the increment path is zero-alloc and lock-free (atomic adds on
//     pre-resolved metric pointers), so a per-event loop such as
//     trace replay may count into it — one allocation per event at
//     55M events/s is the difference between the bench gate passing
//     and failing. TestHandlesAllocFree pins it;
//
//   - the snapshot path is deterministic and wall-clock-free: metrics
//     are emitted in sorted name order (detorder-clean) and nothing on
//     the export path reads a clock, so two identical runs under an
//     injected fake clock serialize byte-identically.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; obtain shared named instances from a
// Registry. Inc/Add are safe for concurrent use and never allocate.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// histBuckets is one bucket per possible bit length of a uint64
// sample (0..64): bucket i counts samples whose value has bit length
// i, i.e. power-of-two latency/size buckets without any configuration.
const histBuckets = 65

// Histogram accumulates non-negative integer samples (typically
// nanoseconds or byte sizes) into power-of-two buckets plus an exact
// count and sum. Observe is lock-free and never allocates.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveNS records one duration sample given as int64 nanoseconds,
// clamping negatives (a clock that jumped) to zero.
func (h *Histogram) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Observe(uint64(ns))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Registry is a namespace of named metrics. Lookups register on first
// use and always return the same instance for a name, so hot paths
// resolve their metric pointers once, up front, and then increment
// without ever touching the registry lock again.
//
// A name may be bound to at most one metric kind; asking for a
// counter where a histogram is registered panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry: subsystem-global
// counters (the trace cache, recordings) live here; per-run metrics
// belong in a per-observer registry so runs stay comparable.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) checkFree(name, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic("obs: metric " + name + " already registered as a counter")
	}
	if _, ok := r.hists[name]; ok && want != "histogram" {
		panic("obs: metric " + name + " already registered as a histogram")
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}
