package trace

import "repro/internal/obs"

// The trace subsystem's process-global counters live on the default
// obs registry, so any metrics snapshot of the process includes them.
// Hot callers go through these pre-resolved pointers, never through a
// registry lookup.
var (
	cacheHits   = obs.Default().Counter("trace.cache.hits")
	cacheMisses = obs.Default().Counter("trace.cache.misses")
	cacheStores = obs.Default().Counter("trace.cache.stores")
	recordings  = obs.Default().Counter("trace.recordings")
)
