package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Manifest describes one simulated cell — (benchmark, scheme, mode,
// knob values) — with enough identity to re-run it and enough timing
// to explain it. One manifest is emitted per result row; a sweep of
// P points over C cells emits P*C manifests.
//
// Knobs and PhasesNS are maps on purpose: encoding/json marshals map
// keys in sorted order, so serialization is deterministic without any
// ordering code here.
type Manifest struct {
	// Identity.
	Seq         int    `json:"seq"`             // emission order within the run/point
	Point       int    `json:"point"`           // sweep point index; -1 outside sweeps
	Tag         string `json:"tag,omitempty"`   // experiment tag (cmd/experiments)
	Bench       string `json:"bench"`           // benchmark name
	Class       string `json:"class,omitempty"` // workload class (int/fp/...)
	Scheme      string `json:"scheme"`          // prediction scheme
	Mode        string `json:"mode"`            // "trace" | "pipeline"
	IfConverted bool   `json:"if_converted"`
	SpecHash    string `json:"spec_hash,omitempty"` // %016x of the workload spec hash
	Seed        int64  `json:"seed,omitempty"`      // sweep sampling seed, if any
	// Experiment numbers the manifest's experiment in the order the
	// experiments started on one observer. It orders emission and is
	// not serialized.
	Experiment int `json:"-"`

	// Knob values pinned for this cell (sweep axis values).
	Knobs map[string]string `json:"knobs,omitempty"`

	// Execution record. Cache is how the workload obtained the trace
	// the cell replayed: "hit" (the disk cache) or "record" (emulation),
	// whichever experiment on the workload acquired it; "" in pipeline
	// mode.
	Cache        string           `json:"cache,omitempty"`
	Memo         bool             `json:"memo,omitempty"`          // statistics served from another cell's replay
	GroupSchemes []string         `json:"group_schemes,omitempty"` // one scheme per configuration replayed in this single pass
	Committed    uint64           `json:"committed"`               // committed instructions
	PhasesNS     map[string]int64 `json:"phases_ns,omitempty"`
	InstrsPerSec float64          `json:"instrs_per_sec,omitempty"`
	Err          string           `json:"err,omitempty"`
}

// SortManifests orders manifests for emission: by experiment, then by
// sweep point, then by per-point sequence. This is the canonical NDJSON
// order, chosen so concurrent workers produce byte-identical files.
func SortManifests(ms []Manifest) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := &ms[i], &ms[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		return a.Seq < b.Seq
	})
}

// WriteManifests sorts ms into canonical order and writes one JSON
// object per line (NDJSON).
func WriteManifests(w io.Writer, ms []Manifest) error {
	SortManifests(ms)
	enc := json.NewEncoder(w)
	for i := range ms {
		if err := enc.Encode(&ms[i]); err != nil {
			return err
		}
	}
	return nil
}
