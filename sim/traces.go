package sim

import (
	"context"
	"sync"

	"repro/internal/trace"
)

// traceProvider hands out the recorded trace for each benchmark of a
// trace-mode experiment. Every benchmark is recorded at most once per
// provider (all schemes replay the same trace), and recordings are
// cached on disk keyed by the binary alone (trace.Acquire) — so a
// second process run of the same experiment, or an experiment over the
// same binary entered as a program (PreparePrograms) rather than a
// spec, replays from disk without re-emulating anything.
type traceProvider struct {
	dir  string
	cap  uint64 // record budget: the experiment's commit budget
	obsv *Observer

	mu      sync.Mutex
	entries map[string]*traceEntry
}

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

// outcome reports how a loaded benchmark's trace was obtained. Valid
// once get has returned for the benchmark.
func (p *traceProvider) outcome(name string) string {
	return p.entry(name).outcome
}
