package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// CounterSample is one counter's value at snapshot time.
type CounterSample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramSample is one histogram's state at snapshot time. Buckets
// are reported sparsely as {bit-length, count} pairs in ascending
// bit-length order; a bucket's upper bound is 2^len - 1.
type HistogramSample struct {
	Name    string         `json:"name"`
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	Buckets []BucketSample `json:"buckets,omitempty"`
}

// BucketSample is one occupied power-of-two histogram bucket.
type BucketSample struct {
	Len   int    `json:"len"`
	Count uint64 `json:"count"`
}

// Mean returns the mean sample value, or 0 for an empty histogram.
func (h HistogramSample) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, with every section
// in ascending name order. Taking and serializing a snapshot reads no
// clock, so identical metric states serialize byte-identically.
type Snapshot struct {
	Counters   []CounterSample   `json:"counters,omitempty"`
	Histograms []HistogramSample `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Metric values are
// each read atomically; the set of names is captured under the
// registry lock. Output ordering is sorted by name within each
// section, independent of registration or map-iteration order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]CounterSample, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, CounterSample{Name: name, Value: c.Load()})
	}
	hists := make([]HistogramSample, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, sampleHistogram(name, h))
	}
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return Snapshot{Counters: counters, Histograms: hists}
}

func sampleHistogram(name string, h *Histogram) HistogramSample {
	s := HistogramSample{
		Name:  name,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketSample{Len: i, Count: n})
		}
	}
	return s
}

// CounterValue returns the named counter's value, or 0 if absent.
func (s Snapshot) CounterValue(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// HistogramValue returns the named histogram's sample and whether it
// was present.
func (s Snapshot) HistogramValue(name string) (HistogramSample, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSample{}, false
}

// WriteJSON writes the snapshot as indented JSON (expvar-style: one
// self-describing document, stable field order) followed by a newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
