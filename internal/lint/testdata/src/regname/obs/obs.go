// Package obs mocks the metrics registry surface: the get-or-create
// constructors regname treats as registrations and the snapshot
// lookups it resolves against them.
package obs

// Registry is the mock metrics registry.
type Registry struct{}

// Counter is a mock counter handle.
type Counter struct{}

// Histogram is a mock histogram handle.
type Histogram struct{}

// Counter returns the named counter, creating (registering) it.
func (r *Registry) Counter(name string) *Counter { return &Counter{} }

// Histogram returns the named histogram, creating (registering) it.
func (r *Registry) Histogram(name string) *Histogram { return &Histogram{} }

// Default returns the process-wide registry.
func Default() *Registry { return &Registry{} }

// HistogramSample is a mock snapshot row.
type HistogramSample struct{ Count uint64 }

// Snapshot is a mock point-in-time registry copy.
type Snapshot struct{}

// CounterValue looks a counter up by name (0 when absent).
func (s Snapshot) CounterValue(name string) uint64 { return 0 }

// HistogramValue looks a histogram up by name.
func (s Snapshot) HistogramValue(name string) (HistogramSample, bool) {
	return HistogramSample{}, false
}
