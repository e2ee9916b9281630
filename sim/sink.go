package sim

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// Sink consumes results as they complete. Implementations are not
// safe for concurrent Emit; feed them from a single drain loop.
type Sink interface {
	// Emit records one completed run.
	Emit(Result) error
	// Close flushes buffered output. The sink is unusable afterwards.
	Close() error
}

// record is the machine-readable projection of a Result shared by the
// JSON and CSV emitters. Field order is the CSV column order.
type record struct {
	Tag              string  `json:"tag,omitempty"`
	Bench            string  `json:"bench"`
	Class            string  `json:"class"`
	Scheme           string  `json:"scheme"`
	Mode             string  `json:"mode"`
	IfConverted      bool    `json:"if_converted"`
	Cycles           uint64  `json:"cycles"`
	Committed        uint64  `json:"committed"`
	IPC              float64 `json:"ipc"`
	CondBranches     uint64  `json:"cond_branches"`
	Mispredicts      uint64  `json:"mispredicts"`
	MispredictPct    float64 `json:"mispredict_pct"`
	EarlyResolved    uint64  `json:"early_resolved"`
	EarlyResolvedHit uint64  `json:"early_resolved_hit"`
	PredPredictions  uint64  `json:"pred_predictions"`
	PredMispredicts  uint64  `json:"pred_mispredicts"`
	Cancelled        uint64  `json:"cancelled"`
	Unguarded        uint64  `json:"unguarded"`
	SelectOps        uint64  `json:"select_ops"`
	ShadowMispredPct float64 `json:"shadow_mispredict_pct"`
	// The miss rates are pointers so trace-mode runs — which have no
	// memory hierarchy at all — serialize as absent (JSON) or empty
	// (CSV) cells instead of a fictitious perfect 0.0% hierarchy.
	L1DMissPct *float64 `json:"l1d_miss_pct,omitempty"`
	L2MissPct  *float64 `json:"l2_miss_pct,omitempty"`
	Err        string   `json:"error,omitempty"`
}

func toRecord(r Result) record {
	st := r.Stats
	rec := record{
		Tag:              r.Tag,
		Bench:            r.Bench,
		Class:            r.Class,
		Scheme:           r.Scheme,
		Mode:             modeName(r.Mode),
		IfConverted:      r.IfConverted,
		Cycles:           st.Cycles,
		Committed:        st.Committed,
		IPC:              round3(st.IPC()),
		CondBranches:     st.CondBranches,
		Mispredicts:      st.BranchMispred,
		MispredictPct:    round3(100 * st.MispredictRate()),
		EarlyResolved:    st.EarlyResolved,
		EarlyResolvedHit: st.EarlyResolvedHit,
		PredPredictions:  st.PredPredictions,
		PredMispredicts:  st.PredMispredicts,
		Cancelled:        st.Cancelled,
		Unguarded:        st.Unguarded,
		SelectOps:        st.SelectOps,
		ShadowMispredPct: round3(100 * st.ShadowMispredictRate()),
	}
	// Trace mode has no cache hierarchy: leave the miss-rate cells
	// unset rather than rendering an all-zero (perfect-looking) one.
	if r.Mode != ModeTrace {
		l1d := round3(100 * r.Mem.L1DMissRate())
		l2 := round3(100 * r.Mem.L2MissRate())
		rec.L1DMissPct, rec.L2MissPct = &l1d, &l2
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

// modeName renders a result's mode, defaulting the zero value to
// "pipeline" (hand-built Results predate the mode field).
func modeName(m Mode) string {
	if m == 0 {
		return "pipeline"
	}
	return m.String()
}

// round3 keeps emitted rates readable and diff-stable.
func round3(v float64) float64 {
	f, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
	if err != nil {
		return v
	}
	return f
}

// JSONSink writes one JSON object per line (NDJSON), streaming-safe
// and machine-readable for figure post-processing.
type JSONSink struct {
	enc *json.Encoder
}

// NewJSONSink creates a sink writing NDJSON records to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit writes one record line.
func (s *JSONSink) Emit(r Result) error { return s.enc.Encode(toRecord(r)) }

// Close is a no-op: every Emit already flushed a full line.
func (s *JSONSink) Close() error { return nil }

// csvHeader derives the column names from the record struct's json
// tags, so the header and rows can never drift from the struct.
var csvHeader = func() []string {
	t := reflect.TypeOf(record{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = strings.TrimSuffix(t.Field(i).Tag.Get("json"), ",omitempty")
	}
	return names
}()

// CSVSink writes a header row followed by one row per result.
type CSVSink struct {
	w      *csv.Writer
	wroteH bool
}

// NewCSVSink creates a sink writing CSV to w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// recordRow renders a record as CSV cells, field-by-field in struct
// order — shared by the plain and sweep CSV sinks so their row format
// cannot drift.
func recordRow(rec record) ([]string, error) {
	v := reflect.ValueOf(rec)
	row := make([]string, v.NumField())
	for i := range row {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			row[i] = f.String()
		case reflect.Bool:
			row[i] = strconv.FormatBool(f.Bool())
		case reflect.Uint64:
			row[i] = strconv.FormatUint(f.Uint(), 10)
		case reflect.Float64:
			row[i] = strconv.FormatFloat(f.Float(), 'f', 3, 64)
		case reflect.Pointer:
			// Unset optional figure (e.g. miss rates on a trace-mode
			// run): an empty cell, not a fabricated zero.
			if f.IsNil() {
				row[i] = ""
			} else if e := f.Elem(); e.Kind() == reflect.Float64 {
				row[i] = strconv.FormatFloat(e.Float(), 'f', 3, 64)
			} else {
				return nil, fmt.Errorf("sim: unsupported record pointer field kind %v", e.Kind())
			}
		default:
			return nil, fmt.Errorf("sim: unsupported record field kind %v", f.Kind())
		}
	}
	return row, nil
}

// Emit writes one CSV row (and the header before the first row).
func (s *CSVSink) Emit(r Result) error {
	if !s.wroteH {
		if err := s.w.Write(csvHeader); err != nil {
			return err
		}
		s.wroteH = true
	}
	row, err := recordRow(toRecord(r))
	if err != nil {
		return err
	}
	return s.w.Write(row)
}

// Close flushes the CSV writer.
func (s *CSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}
