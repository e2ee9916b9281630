package stats

// Timings is the phase breakdown of one single-pass replay: where the
// wall time went between the three stages of the shared-cursor loop.
// EngineNS is parallel to the replayed configurations. All values are
// nanoseconds on the clock passed to ReplayAll.
//
// The breakdown is sampled once per decoded batch (batchEvents events),
// so enabling it costs 2+N clock reads per ~1024 events — measured
// under 2% on the 3-scheme vpr replay (see EXPERIMENTS.md) — and
// nothing at all when replay runs untimed.
type Timings struct {
	DecodeNS   int64   // cursor batch decode
	FrontendNS int64   // budget admission, shared frontend annotate and the pass's conventional predictors
	EngineNS   []int64 // per-configuration engine fan-out
	Batches    int64   // decoded batches (timing sample count)
}
