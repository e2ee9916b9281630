package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("second lookup returned a different counter")
	}

	h := r.Histogram("h")
	h.Observe(0) // bit length 0
	h.Observe(1) // bit length 1
	h.Observe(9) // bit length 4
	h.ObserveNS(-5)
	if got := h.Count(); got != 4 {
		t.Errorf("hist count = %d, want 4", got)
	}
	if got := h.Sum(); got != 10 {
		t.Errorf("hist sum = %d, want 10", got)
	}
}

// TestHandlesAllocFree checks the increment path's contract: a counter
// or histogram handle, once resolved, records without allocating, the
// negative-duration clamp included.
func TestHandlesAllocFree(t *testing.T) {
	r := NewRegistry()
	c, h := r.Counter("c"), r.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(9)
		h.ObserveNS(1500)
		h.ObserveNS(-5)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per increment round, want 0", allocs)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("Histogram(\"x\") after Counter(\"x\") did not panic")
		}
	}()
	r.Histogram("x")
}

func TestSnapshotSortedAndLookups(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately unsorted order.
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Inc()
	r.Histogram("q.h").Observe(5)
	r.Histogram("b.h").Observe(1)

	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Errorf("counters not sorted: %q before %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	for i := 1; i < len(s.Histograms); i++ {
		if s.Histograms[i-1].Name >= s.Histograms[i].Name {
			t.Errorf("histograms not sorted: %q before %q", s.Histograms[i-1].Name, s.Histograms[i].Name)
		}
	}
	if got := s.CounterValue("a.first"); got != 1 {
		t.Errorf("CounterValue(a.first) = %d, want 1", got)
	}
	if got := s.CounterValue("missing"); got != 0 {
		t.Errorf("CounterValue(missing) = %d, want 0", got)
	}
	h, ok := s.HistogramValue("q.h")
	if !ok || h.Count != 1 || h.Sum != 5 {
		t.Errorf("HistogramValue(q.h) = %+v, %v; want count=1 sum=5, true", h, ok)
	}
	if h.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", h.Mean())
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("runs").Add(2)
		h := r.Histogram("span.decode.ns")
		h.Observe(100)
		h.Observe(900)
		return r.Snapshot()
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshot JSON differs between identical registries:\n%s\n--\n%s", a.Bytes(), b.Bytes())
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestWriteManifestsCanonicalOrder(t *testing.T) {
	ms := []Manifest{
		{Seq: 1, Point: 2, Bench: "b", Scheme: "s", Mode: "trace"},
		{Seq: 0, Point: 2, Bench: "a", Scheme: "s", Mode: "trace"},
		{Seq: 3, Point: -1, Bench: "c", Scheme: "s", Mode: "trace"},
	}
	var buf bytes.Buffer
	if err := WriteManifests(&buf, ms); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	// point -1 first, then point 2 ordered by seq.
	if !bytes.Contains(lines[0], []byte(`"bench":"c"`)) {
		t.Errorf("line 0 = %s, want bench c", lines[0])
	}
	if !bytes.Contains(lines[1], []byte(`"bench":"a"`)) {
		t.Errorf("line 1 = %s, want bench a", lines[1])
	}
	if !bytes.Contains(lines[2], []byte(`"bench":"b"`)) {
		t.Errorf("line 2 = %s, want bench b", lines[2])
	}
}

func TestManifestKnobsSortedInJSON(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		err := WriteManifests(&buf, []Manifest{{
			Bench: "b", Scheme: "s", Mode: "trace",
			Knobs:    map[string]string{"z.k": "1", "a.k": "2", "m.k": "3"},
			PhasesNS: map[string]int64{"frontend": 5, "decode": 7},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Error("manifest JSON with map fields differs between identical emissions")
	}
}

func TestNanotimeMonotone(t *testing.T) {
	a := Nanotime()
	b := Nanotime()
	if b < a {
		t.Errorf("Nanotime went backwards: %d then %d", a, b)
	}
}
