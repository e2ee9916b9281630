// Package sim mocks the façade's registry surface: the same type and
// function names regname keys on in the real module.
package sim

// SchemeSpec mirrors the scheme table record.
type SchemeSpec struct {
	Name string
	Doc  string
}

// WorkloadSpec mirrors the workload preset record.
type WorkloadSpec struct {
	Name string
	Doc  string
}

// ResolveScheme looks up a scheme by name.
func ResolveScheme(name string) (SchemeSpec, bool) { return SchemeSpec{}, false }

// ResolveWorkload looks up a workload by name.
func ResolveWorkload(name string) (WorkloadSpec, bool) { return WorkloadSpec{}, false }

// WithSchemes selects schemes by name.
func WithSchemes(names ...string) {}

// SuiteSpecs expands suite entries (workloads, benchmarks or spec
// files).
func SuiteSpecs(entries ...string) error { return nil }

// WithAxis selects a sweep knob by name.
func WithAxis(name string, values ...any) {}

// BuildBenchmark generates a suite benchmark by name.
func BuildBenchmark(name string) error { return nil }
