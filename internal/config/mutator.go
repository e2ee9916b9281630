package config

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Mutator is a named, string-addressable configuration knob: the
// contract between the sweep engine's -axes surface and the Config
// struct. Apply parses a value and writes the corresponding field(s);
// a parse failure returns an error naming the knob, never a partial
// write.
type Mutator struct {
	// Name is the knob's key, conventionally "group.field"
	// (e.g. "pvt.entries", "conf.bits").
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Apply parses value and mutates c.
	Apply func(c *Config, value string) error
}

// ResolveMutator looks a knob up by name.
func ResolveMutator(name string) (Mutator, bool) {
	for _, m := range mutators {
		if m.Name == name {
			return m, true
		}
	}
	return Mutator{}, false
}

// MutatorNames returns every knob name, sorted.
func MutatorNames() []string {
	names := make([]string, len(mutators))
	for i, m := range mutators {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// Set applies one named knob to c: the string-addressed equivalent of
// writing the Config field directly.
func Set(c *Config, name, value string) error {
	m, ok := ResolveMutator(name)
	if !ok {
		return fmt.Errorf("config: unknown knob %q (registered: %v)", name, MutatorNames())
	}
	return m.Apply(c, value)
}

// parsePositive parses a knob's positive integer value.
func parsePositive(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("config: %s: want a positive integer, got %q", name, v)
	}
	return n, nil
}

// intKnob builds an Apply that parses a positive integer into set.
func intKnob(name string, set func(*Config, int)) func(*Config, string) error {
	return func(c *Config, v string) error {
		n, err := parsePositive(name, v)
		if err != nil {
			return err
		}
		set(c, n)
		return nil
	}
}

// uintKnob builds an Apply that parses a positive bit count into set.
func uintKnob(name string, set func(*Config, uint)) func(*Config, string) error {
	return func(c *Config, v string) error {
		n, err := strconv.ParseUint(v, 10, 6)
		if err != nil || n < 1 {
			return fmt.Errorf("config: %s: want a positive bit count, got %q", name, v)
		}
		set(c, uint(n))
		return nil
	}
}

// boolKnob builds an Apply that parses a boolean into set.
func boolKnob(name string, set func(*Config, bool)) func(*Config, string) error {
	return func(c *Config, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("config: %s: want a boolean, got %q", name, v)
		}
		set(c, b)
		return nil
	}
}

// mutators are the knobs: the §3.3/§4 sensitivity axes of the paper
// plus the machine parameters the ROADMAP sweeps care about. Predictor
// byte budgets are shared by the conventional second level and the
// predicate predictor's PVT (both are sized from L2PredBytes); PEP-PA
// sizes itself and does not respond to these knobs.
var mutators = []Mutator{
	{
		Name: "pvt.entries",
		Doc:  "second-level predictor rows (PVT/perceptron); sets the byte budget as rows × (GHR+LHR+1) weights — apply history-width knobs first",
		// The row size is read from the current history widths; see
		// knobReads.
		Apply: func(c *Config, v string) error {
			n, err := parsePositive("pvt.entries", v)
			if err != nil {
				return err
			}
			// A product that overflows could wrap into a budget that
			// Validate accepts. Anything short of that is left to
			// Validate's 8 MB bound, because New dry-runs this knob on
			// the default widths and a later point's narrower
			// histories may fit the same row count.
			row := int(c.L2PredGHRBits+c.L2PredLHRBits) + 1
			if n > math.MaxInt/row {
				return fmt.Errorf("config: pvt.entries: %d rows of %d weights overflow the byte budget", n, row)
			}
			c.L2PredBytes = n * row
			return nil
		},
	},
	{
		Name:  "pred.bytes",
		Doc:   "second-level predictor byte budget (Table 1: 151552 = 148 KB; at most 8 MB)",
		Apply: intKnob("pred.bytes", func(c *Config, n int) { c.L2PredBytes = n }),
	},
	{
		Name:  "pred.ghrbits",
		Doc:   "second-level global history length (Table 1: 30)",
		Apply: uintKnob("pred.ghrbits", func(c *Config, n uint) { c.L2PredGHRBits = n }),
	},
	{
		Name:  "pred.lhrbits",
		Doc:   "second-level local history length (Table 1: 10)",
		Apply: uintKnob("pred.lhrbits", func(c *Config, n uint) { c.L2PredLHRBits = n }),
	},
	{
		Name:  "pred.lhtbits",
		Doc:   "log2 of local-history-table entries (Table 1: 12; at most 20)",
		Apply: uintKnob("pred.lhtbits", func(c *Config, n uint) { c.L2PredLHTBits = n }),
	},
	{
		Name:  "pred.latency",
		Doc:   "second-level predictor access latency in cycles (Table 1: 3)",
		Apply: intKnob("pred.latency", func(c *Config, n int) { c.L2PredLatency = n }),
	},
	{
		Name:  "conf.bits",
		Doc:   "predicate confidence counter width (Table 1: 3; 1..8; saturated == confident)",
		Apply: uintKnob("conf.bits", func(c *Config, n uint) { c.ConfBits = n }),
	},
	{
		Name: "gshare.idxbits",
		Doc:  "first-level gshare index and history length (Table 1: 14; at most 20)",
		Apply: uintKnob("gshare.idxbits", func(c *Config, n uint) {
			c.GshareIdxBits = n
			c.GshareGHRBits = n
		}),
	},
	{
		Name:  "mispredict.penalty",
		Doc:   "branch misprediction recovery cycles (Table 1: 10)",
		Apply: intKnob("mispredict.penalty", func(c *Config, n int) { c.MispredictPenalty = n }),
	},
	{
		Name:  "rob.entries",
		Doc:   "reorder buffer entries (Table 1: 256)",
		Apply: intKnob("rob.entries", func(c *Config, n int) { c.ROBEntries = n }),
	},
	{
		Name:  "ras.entries",
		Doc:   "return address stack entries (Table 1: 32)",
		Apply: intKnob("ras.entries", func(c *Config, n int) { c.RASEntries = n }),
	},
	{
		Name:  "pvt.split",
		Doc:   "statically split the PVT instead of sharing it through two hash functions (§3.3 ablation)",
		Apply: boolKnob("pvt.split", func(c *Config, b bool) { c.SplitPVT = b }),
	},
	{
		Name:  "ghr.repair",
		Doc:   "repair a resolved compare's speculative GHR bit in place (§3.3; false = leave corrupted)",
		Apply: boolKnob("ghr.repair", func(c *Config, b bool) { c.DisableGHRRepair = !b }),
	},
	{
		Name: "predication",
		Doc:  "guarded-instruction handling at rename: select | selective (§3.2)",
		Apply: func(c *Config, v string) error {
			switch v {
			case "select":
				c.Predication = PredicationSelect
			case "selective":
				c.Predication = PredicationSelective
			default:
				return fmt.Errorf("config: predication: want select or selective, got %q", v)
			}
			return nil
		},
	},
}

// knobReads maps a knob to the knobs whose fields its Apply reads:
// pvt.entries turns rows into a byte budget through the history
// widths current when it applies. Applied in the wrong order, the
// same knob values give a different configuration.
var knobReads = map[string][]string{
	"pvt.entries": {"pred.ghrbits", "pred.lhrbits"},
}

// CheckOrder rejects a knob sequence, applied in order, in which a knob
// comes before a knob whose field it reads.
func CheckOrder(names []string) error {
	for i, name := range names {
		for _, dep := range knobReads[name] {
			if slices.Contains(names[i+1:], dep) {
				return fmt.Errorf("config: %s reads %s when it applies; declare %s before %s", name, dep, dep, name)
			}
		}
	}
	return nil
}
