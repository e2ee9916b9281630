package obs

import "time"

// Phase names form the run-lifecycle span taxonomy. Each phase is
// accumulated as a histogram of nanosecond durations under the metric
// name "span." + phase + ".ns" in the observing registry, and the
// same names key the per-run PhasesNS map in a Manifest.
//
// The taxonomy follows the shape of a run: a workload is prepared,
// its trace is either looked up in the cache or recorded, then the
// replay loop alternates cursor batch decode, the shared
// scheme-independent frontend, and the per-scheme engine fan-out;
// cycle-accurate cells run the pipeline instead of the trace trio;
// finally results flow through the sink.
const (
	PhasePrepare     = "prepare"      // workload assembly + profiling
	PhaseCacheLookup = "cache-lookup" // trace disk-cache probe
	PhaseRecord      = "trace-record" // functional-emulator trace recording
	PhaseDecode      = "decode"       // cursor batch decode
	PhaseFrontend    = "frontend"     // shared scheme-independent annotate
	PhaseEngine      = "engine"       // per-scheme engine fan-out
	PhasePipeline    = "pipeline"     // cycle-accurate model (non-trace cells)
	PhaseSink        = "sink"         // result emission
)

// SpanName returns the registry metric name for a phase's duration
// histogram.
func SpanName(phase string) string { return "span." + phase + ".ns" }

// Nanotime is the default clock: monotonic nanoseconds since an
// arbitrary origin. Only differences are meaningful. Observers accept
// an injected replacement so tests can drive a deterministic fake.
func Nanotime() int64 { return int64(time.Since(processStart)) }

// processStart anchors Nanotime to the monotonic clock via
// time.Since, which uses the monotonic reading exclusively.
var processStart = time.Now()
