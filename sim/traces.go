package sim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// traceProvider hands out the recorded trace for each benchmark of a
// trace-mode experiment. Every benchmark is recorded at most once per
// provider (all schemes replay the same trace), and recordings are
// cached on disk keyed by the benchmark spec, the profiling budget,
// the binary variant and the binary's content hash — so a second
// process run of the same experiment replays from disk without
// re-emulating anything.
//
// The provider also holds the replay memo: the statistics of every
// successful replay, keyed by benchmark and replay-visible
// configuration (stats.EngineConfig). The commit budget and the
// if-converted variant are fixed per provider, so that key determines
// the statistics exactly, and any cell whose key was already replayed
// — another sweep point differing only in timing knobs, a duplicate
// scheme — is served without replaying.
type traceProvider struct {
	dir          string
	profileSteps uint64
	cap          uint64 // record budget: the experiment's commit budget
	obsv         *Observer

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

	// Provenance, for manifests and spans: how this benchmark's trace
	// was obtained ("hit" from the disk cache, "record" by emulation)
	// and what each step cost on the observer's clock. Written inside
	// once.Do, read only after it returns.
	outcome  string
	lookupNS int64
	recordNS int64
}

func newTraceProvider(dir string, profileSteps, cap uint64, o *Observer) *traceProvider {
	if dir == "" {
		dir = trace.DefaultDir()
	}
	return &traceProvider{
		dir:          dir,
		profileSteps: profileSteps,
		cap:          cap,
		obsv:         o,
		entries:      make(map[string]*traceEntry),
		memo:         make(map[memoKey]*memoEntry),
	}
}

// get returns the trace for one prepared benchmark variant, loading it
// from the disk cache or recording it (once, however many scheme jobs
// ask concurrently).
func (p *traceProvider) get(ctx context.Context, pg stats.Programs, converted bool) (*trace.Trace, error) {
	ent := p.entry(pg.Spec.Name)
	ent.once.Do(func() {
		ent.tr, ent.err = p.load(ctx, pg, converted, ent)
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

func (p *traceProvider) load(ctx context.Context, pg stats.Programs, converted bool, ent *traceEntry) (*trace.Trace, error) {
	prog := pg.Plain
	if converted {
		prog = pg.Converted
	}
	hash := trace.HashProgram(prog)
	// The key carries the full spec hash (every generator knob,
	// including the optional behaviour fields at their resolved
	// defaults), so user-authored workloads — which are free to reuse a
	// built-in name with different parameters — cache correctly.
	parts := []string{
		fmt.Sprintf("spec=%016x", pg.Spec.Hash()),
		fmt.Sprintf("profile=%d", p.profileSteps),
		fmt.Sprintf("converted=%v", converted),
		fmt.Sprintf("prog=%016x", hash),
	}
	key := trace.Key(parts...)
	o := p.obsv
	t0 := o.now()
	t, _ := trace.Load(p.dir, key)
	ent.lookupNS = o.now() - t0
	o.span(PhaseCacheLookup, ent.lookupNS)
	if t != nil && t.ProgHash == hash && t.Covers(p.cap) {
		ent.outcome = "hit"
		o.cacheOutcome(ent.outcome)
		return t, nil
	}
	var regions []trace.Region
	if converted {
		for _, h := range pg.Hammocks {
			regions = append(regions, trace.Region{Kind: uint8(h.Kind), BranchPC: h.Branch})
		}
	}
	t0 = o.now()
	t, err := trace.Record(ctx, prog, trace.Options{MaxSteps: p.cap, Regions: regions})
	if err != nil {
		return nil, err
	}
	ent.recordNS = o.now() - t0
	ent.outcome = "record"
	o.span(PhaseRecord, ent.recordNS)
	o.cacheOutcome(ent.outcome)
	// The cache is advisory: a failed store costs a re-recording next
	// process, never the run.
	_ = trace.Store(p.dir, key, t)
	return t, nil
}
