package sim

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// SweepSink consumes sweep results as points complete, in long format:
// every emitted row/object is one run of one point, carrying the
// point's axis coordinates next to the usual result columns.
// Implementations are not safe for concurrent Emit; feed them from a
// single drain loop.
type SweepSink interface {
	// Emit records one completed sweep point (all of its runs).
	Emit(SweepResult) error
	// Close flushes buffered output. The sink is unusable afterwards.
	Close() error
}

// sweepRecord is the long-format NDJSON projection of one run of one
// sweep point: the point coordinates, then the shared record fields.
type sweepRecord struct {
	Point int               `json:"point"`
	Axes  map[string]string `json:"axes"`
	record
}

// SweepJSONSink writes one NDJSON object per run per point.
type SweepJSONSink struct {
	enc *json.Encoder
}

// NewSweepJSONSink creates a sink writing long-format NDJSON records
// to w.
func NewSweepJSONSink(w io.Writer) *SweepJSONSink {
	return &SweepJSONSink{enc: json.NewEncoder(w)}
}

// Emit writes one line per run of the point.
func (s *SweepJSONSink) Emit(sr SweepResult) error {
	axes := make(map[string]string, len(sr.Point.Values))
	for _, av := range sr.Point.Values {
		axes[av.Axis] = av.Value
	}
	for _, r := range sr.Results {
		if err := s.enc.Encode(sweepRecord{Point: sr.Point.Index, Axes: axes, record: toRecord(r)}); err != nil {
			return err
		}
	}
	return nil
}

// Close is a no-op: every Emit already flushed full lines.
func (s *SweepJSONSink) Close() error { return nil }

// SweepCSVSink writes long-format CSV: a "point" column, one
// "axis:<name>" column per sweep axis, then the regular result
// columns. Axis names are fixed at construction (take them from
// Sweep.AxisNames) so the header is stable however points stream in.
type SweepCSVSink struct {
	w      *csv.Writer
	axes   []string
	wroteH bool
}

// NewSweepCSVSink creates a sink writing long-format CSV to w with one
// axis column per name, in the given order.
func NewSweepCSVSink(w io.Writer, axes []string) *SweepCSVSink {
	return &SweepCSVSink{w: csv.NewWriter(w), axes: append([]string(nil), axes...)}
}

// Emit writes one CSV row per run of the point (and the header before
// the first row).
func (s *SweepCSVSink) Emit(sr SweepResult) error {
	if !s.wroteH {
		header := make([]string, 0, 1+len(s.axes)+len(csvHeader))
		header = append(header, "point")
		for _, name := range s.axes {
			header = append(header, "axis:"+name)
		}
		header = append(header, csvHeader...)
		if err := s.w.Write(header); err != nil {
			return err
		}
		s.wroteH = true
	}
	prefix := make([]string, 0, 1+len(s.axes))
	prefix = append(prefix, strconv.Itoa(sr.Point.Index))
	for _, name := range s.axes {
		v, _ := sr.Point.Value(name) // a missing axis renders empty, not misaligned
		prefix = append(prefix, v)
	}
	for _, r := range sr.Results {
		cells, err := recordRow(toRecord(r))
		if err != nil {
			return err
		}
		if err := s.w.Write(append(append([]string(nil), prefix...), cells...)); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes the CSV writer.
func (s *SweepCSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}
