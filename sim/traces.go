package sim

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// traceProvider hands out the recorded trace for each benchmark of a
// trace-mode experiment. Every benchmark is recorded at most once per
// provider (all schemes replay the same trace), and recordings are
// cached on disk keyed by the binary alone (trace.Acquire) — so a
// second process run of the same experiment, or SimulateProgram on the
// same binary, replays from disk without re-emulating anything.
//
// The provider also holds the replay memo: the statistics of every
// successful replay, keyed by benchmark and replay-visible
// configuration (stats.EngineConfig). The commit budget and the
// if-converted variant are fixed per provider, so that key determines
// the statistics exactly, and any cell whose key was already replayed
// — another sweep point differing only in timing knobs, a duplicate
// scheme — is served without replaying.
type traceProvider struct {
	dir  string
	cap  uint64 // record budget: the experiment's commit budget
	obsv *Observer

	mu      sync.Mutex
	entries map[string]*traceEntry
	memo    map[memoKey]*memoEntry
}

// memoKey identifies one replay of a provider's trace.
type memoKey struct {
	bench string
	cfg   stats.EngineConfig
}

// memoEntry is one claimed replay. Its claimant fills st (on success)
// or err, then closes done; readers wait on done before reading either.
type memoEntry struct {
	key  memoKey
	done chan struct{}
	st   Stats
	err  error
}

// Replay memo counters, on the process registry beside the trace
// cache's: a hit is a cell served from another cell's replay, a miss
// a cell replayed.
var (
	memoHits   = obs.Default().Counter("replay.memo.hits")
	memoMisses = obs.Default().Counter("replay.memo.misses")
)

type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error

	// Provenance, for manifests: how this benchmark's trace was
	// obtained ("hit" from the disk cache, "record" by emulation).
	// Written inside once.Do, read only after it returns.
	outcome string
}

// newTraceProvider returns a provider over the trace cache in dir
// ("" = the default directory) recording cap commits per binary.
func newTraceProvider(dir string, cap uint64, o *Observer) *traceProvider {
	return &traceProvider{
		dir:     dir,
		cap:     cap,
		obsv:    o,
		entries: make(map[string]*traceEntry),
		memo:    make(map[memoKey]*memoEntry),
	}
}

// get returns the trace of the named benchmark's binary, loading it
// from the disk cache or recording it (once, however many scheme jobs
// ask concurrently), and spans the lookup and any recording on the
// observer's clock.
func (p *traceProvider) get(ctx context.Context, name string, prog *Program) (*trace.Trace, error) {
	ent := p.entry(name)
	ent.once.Do(func() {
		o := p.obsv
		var pv trace.Provenance
		ent.tr, pv, ent.err = trace.Acquire(ctx, p.dir, prog, p.cap, o.replayClock())
		o.span(PhaseCacheLookup, pv.LookupNS)
		if ent.err != nil {
			return
		}
		if pv.Outcome == "record" {
			o.span(PhaseRecord, pv.RecordNS)
		}
		ent.outcome = pv.Outcome
		o.cacheOutcome(pv.Outcome)
	})
	return ent.tr, ent.err
}

func (p *traceProvider) entry(name string) *traceEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	ent := p.entries[name]
	if ent == nil {
		ent = &traceEntry{}
		p.entries[name] = ent
	}
	return ent
}

// claim returns the memo entry for k and whether the caller created
// it. The creator owns the entry and must settle it; everyone else
// waits on its done channel.
func (p *traceProvider) claim(k memoKey) (*memoEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.memo[k]; m != nil {
		return m, false
	}
	m := &memoEntry{key: k, done: make(chan struct{})}
	p.memo[k] = m
	return m, true
}

// settle publishes a claimed entry's outcome and wakes its waiters. A
// failed replay is withdrawn from the memo, so only successful replays
// are stored; the waiters already parked on it share its error.
func (p *traceProvider) settle(m *memoEntry, st Stats, err error) {
	m.st, m.err = st, err
	if err != nil {
		p.mu.Lock()
		delete(p.memo, m.key)
		p.mu.Unlock()
	}
	close(m.done)
}

// outcome reports how a loaded benchmark's trace was obtained. Valid
// once get has returned for the benchmark.
func (p *traceProvider) outcome(name string) string {
	return p.entry(name).outcome
}
