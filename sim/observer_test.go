package sim_test

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/sim"
)

// fakeClock returns a deterministic monotonic clock: every read
// advances by step nanoseconds. Atomic, so concurrent phase timers
// still read strictly increasing values.
func fakeClock(step int64) func() int64 {
	var tick atomic.Int64
	return func() int64 { return tick.Add(step) }
}

// observedSweep runs the determinism-test sweep with an injected fake
// clock and a single worker, returning the exact bytes of the metrics
// snapshot and the NDJSON manifest stream.
func observedSweep(t *testing.T, dir string) (metrics, manifests []byte) {
	t.Helper()
	o := sim.NewObserverWithClock(fakeClock(10))
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(dir),
		sim.WithParallelism(1),
		sim.WithObserver(o),
		sim.WithAxis("pvt.entries", 256, 1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var mbuf, nbuf bytes.Buffer
	if err := o.Metrics().WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteManifests(&nbuf); err != nil {
		t.Fatal(err)
	}
	return mbuf.Bytes(), nbuf.Bytes()
}

// TestObservedSweepByteIdentical is the observability arm of the
// determinism contract: with an injected clock, two identical sweeps
// must produce byte-identical metrics snapshots AND byte-identical
// NDJSON manifest streams. A warm-up sweep first populates the trace
// cache so both observed runs see the same "hit" provenance and the
// same clock-read sequence.
func TestObservedSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	observedSweep(t, dir) // warm the trace cache
	m1, n1 := observedSweep(t, dir)
	m2, n2 := observedSweep(t, dir)
	if len(m1) == 0 || len(n1) == 0 {
		t.Fatal("observed sweep emitted no metrics or manifests")
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ between identical runs:\nrun1:\n%s\nrun2:\n%s", m1, m2)
	}
	if !bytes.Equal(n1, n2) {
		t.Errorf("manifest streams differ between identical runs:\nrun1:\n%s\nrun2:\n%s", n1, n2)
	}
	if !strings.Contains(string(n1), `"cache":"hit"`) {
		t.Errorf("warmed manifests should carry hit provenance:\n%s", n1)
	}
}

// TestObserverManifestContents checks the per-cell attribution of one
// observed sweep: every cell gets a manifest with identity, knob
// values, phase timings and a throughput figure.
// observedPair runs two tagged four-cell experiments, one after the
// other, on one observer whose clock never advances, so no phase timing
// depends on how the four workers interleave. It returns the
// observer's manifests and their NDJSON stream.
func observedPair(t *testing.T, wl *sim.Workload) ([]sim.RunManifest, []byte) {
	t.Helper()
	o := sim.NewObserverWithClock(fakeClock(0))
	for _, tag := range []string{"first", "second"} {
		exp, err := sim.New(
			sim.WithWorkload(wl),
			sim.WithTag(tag),
			sim.WithSchemes("conventional", "predpred"),
			sim.WithCommits(20000),
			sim.WithParallelism(4),
			sim.WithObserver(o),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := o.WriteManifests(&buf); err != nil {
		t.Fatal(err)
	}
	return o.Manifests(), buf.Bytes()
}

// TestManifestsOrderedByExperiment checks the manifest order when one
// observer watches several experiments: outside a sweep every cell has
// point -1 and each experiment numbers its cells from 0, so only the
// experiments' start order keeps their manifests apart and the stream
// independent of worker completion order.
func TestManifestsOrderedByExperiment(t *testing.T) {
	wl, err := sim.PrepareWorkload([]string{"gzip", "vpr"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	ms, n1 := observedPair(t, wl)
	_, n2 := observedPair(t, wl)
	if len(ms) != 8 {
		t.Fatalf("%d manifests, want 8", len(ms))
	}
	for i, m := range ms {
		if want := []string{"first", "second"}[i/4]; m.Tag != want {
			t.Errorf("manifest %d is %s's (seq %d), want %s's", i, m.Tag, m.Seq, want)
		}
	}
	if !bytes.Equal(n1, n2) {
		t.Errorf("manifest streams differ between identical runs:\nrun1:\n%s\nrun2:\n%s", n1, n2)
	}
}

func TestObserverManifestContents(t *testing.T) {
	o := sim.NewObserverWithClock(fakeClock(7))
	wl, err := sim.PrepareWorkload([]string{"gzip"}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sim.New(
		sim.WithWorkload(wl),
		sim.WithSchemes("conventional", "predpred"),
		sim.WithCommits(60000),
		sim.WithMode(sim.ModeTrace),
		sim.WithTraceDir(t.TempDir()),
		sim.WithParallelism(1),
		sim.WithObserver(o),
		sim.WithAxis("pvt.entries", 256, 1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ms := o.Manifests()
	if len(ms) != 4 { // 2 points x 1 bench x 2 schemes
		t.Fatalf("got %d manifests, want 4", len(ms))
	}
	for i, m := range ms {
		if m.Seq != i%2 { // cell sequence restarts at each sweep point
			t.Errorf("manifest %d: seq = %d (canonical order broken)", i, m.Seq)
		}
		if m.Point != i/2 {
			t.Errorf("manifest %d: point = %d, want %d", i, m.Point, i/2)
		}
		if m.Bench != "gzip" {
			t.Errorf("manifest %d: bench = %q", i, m.Bench)
		}
		if m.Knobs["pvt.entries"] == "" {
			t.Errorf("manifest %d: missing pvt.entries knob (knobs %v)", i, m.Knobs)
		}
		if m.Cache != "record" && m.Cache != "hit" {
			t.Errorf("manifest %d: cache = %q", i, m.Cache)
		}
		if m.Committed == 0 || m.InstrsPerSec <= 0 {
			t.Errorf("manifest %d: committed %d, instrs/s %v", i, m.Committed, m.InstrsPerSec)
		}
		for _, phase := range []string{sim.PhaseDecode, sim.PhaseFrontend, sim.PhaseEngine} {
			if m.PhasesNS[phase] <= 0 {
				t.Errorf("manifest %d: phase %q absent from %v", i, phase, m.PhasesNS)
			}
		}
		if len(m.GroupSchemes) != 2 {
			t.Errorf("manifest %d: group schemes %v, want both", i, m.GroupSchemes)
		}
	}
	snap := o.Metrics()
	if got := snap.CounterValue("runs.completed"); got != 4 {
		t.Errorf("runs.completed = %d, want 4", got)
	}
	if hits, recs := snap.CounterValue("trace.cache.hits"), snap.CounterValue("trace.cache.records"); hits+recs != 1 {
		t.Errorf("cache hits %d + records %d, want exactly one acquisition", hits, recs)
	}
	// No prepare span: WithWorkload hands Start an already-prepared
	// workload, so the prepare phase never runs.
	for _, span := range []string{"span.decode.ns", "span.frontend.ns", "span.engine.ns"} {
		if h, ok := snap.HistogramValue(span); !ok || h.Count == 0 {
			t.Errorf("span histogram %q empty", span)
		}
	}
}

// TestObservedSinksForwardAndTime checks the sink wrapper: results
// pass through unchanged and emission time lands in the sink span;
// a nil observer returns the sink untouched.
func TestObservedSinksForwardAndTime(t *testing.T) {
	o := sim.NewObserverWithClock(fakeClock(5))
	var buf bytes.Buffer
	s := sim.ObservedSink(o, sim.NewJSONSink(&buf))
	if err := s.Emit(sim.Result{Bench: "gzip", Scheme: "predpred"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"bench":"gzip"`) {
		t.Errorf("wrapped sink dropped the record: %q", buf.String())
	}
	if h, ok := o.Metrics().HistogramValue("span.sink.ns"); !ok || h.Count != 2 {
		t.Errorf("sink span observed %d times, want 2 (Emit + Close)", h.Count)
	}
	plain := sim.NewJSONSink(&buf)
	if got := sim.ObservedSink(nil, plain); got != sim.Sink(plain) {
		t.Error("nil-observer ObservedSink should return the sink unchanged")
	}
}

// TestWithObserverNil rejects a nil observer at option time rather
// than panicking mid-run.
func TestWithObserverNil(t *testing.T) {
	_, err := sim.New(sim.WithSchemes("predpred"), sim.WithObserver(nil))
	if err == nil {
		t.Fatal("WithObserver(nil) should fail at New")
	}
}
