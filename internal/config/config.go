// Package config holds the architectural parameters of Table 1 of
// Quiñones et al. (HPCA 2007) and the predictor-scheme selection used
// by the experiment harness.
package config

import (
	"fmt"
	"strings"

	"repro/internal/predictor"
)

// Scheme selects the branch-prediction organization under test.
type Scheme int

const (
	// SchemeConventional is the Table 1 baseline: a 4 KB gshare first
	// level overridden by a 148 KB perceptron second level indexed by
	// branch PC.
	SchemeConventional Scheme = iota
	// SchemePredicate is the paper's proposal: the same first level,
	// but the second-level prediction comes from the predicate
	// predictor through the PPRF (package core).
	SchemePredicate
	// SchemePEPPA replaces the second level with the 144 KB PEP-PA
	// predictor of August et al. (the Figure 6a comparator).
	SchemePEPPA
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeConventional:
		return "conventional"
	case SchemePredicate:
		return "predpred"
	case SchemePEPPA:
		return "peppa"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// PredicationMode selects how if-converted (guarded) non-branch
// instructions are handled by the rename stage.
type PredicationMode int

const (
	// PredicationSelect converts guarded instructions into select-style
	// micro-ops (extra source = previous destination mapping, plus the
	// predicate); the baseline of Wang et al. [21]. Safe but consumes
	// resources for false-predicated work.
	PredicationSelect PredicationMode = iota
	// PredicationSelective is the paper's §3.2 extension: confidently
	// predicted predicates cancel (false) or unguard (true) the
	// instruction at rename; non-confident guards fall back to
	// select-style micro-ops.
	PredicationSelective
)

// String names the predication mode.
func (m PredicationMode) String() string {
	if m == PredicationSelective {
		return "selective"
	}
	return "select"
}

// CacheParams describes one cache level.
type CacheParams struct {
	SizeBytes  int
	Ways       int
	BlockBytes int
	LatCycles  int
	MSHRs      int // primary miss entries (0 = blocking)
	WriteBuf   int // write-buffer entries
}

// Sets returns the number of sets.
func (c CacheParams) Sets() int { return c.SizeBytes / (c.Ways * c.BlockBytes) }

// Config is the full machine configuration (Table 1 defaults).
type Config struct {
	// Front end.
	FetchWidth    int // up to 2 bundles = 6 instructions
	RenameWidth   int
	CommitWidth   int
	FrontendDepth int // fetch-to-rename stages; the second-level predictor's access latency

	// Windows and queues.
	ROBEntries    int
	IntIQEntries  int
	FPIQEntries   int
	BrIQEntries   int
	LoadQEntries  int
	StoreQEntries int
	IntPhysRegs   int
	FPPhysRegs    int
	PredPhysRegs  int

	// Function units.
	IntALUs  int
	FPALUs   int
	MemPorts int
	BrUnits  int

	// Memory hierarchy.
	L1D            CacheParams
	L1I            CacheParams
	L2             CacheParams
	MemLat         int
	DTLBSize       int
	ITLBSize       int
	TLBMissPenalty int

	// Prediction.
	Scheme            Scheme
	Predication       PredicationMode
	GshareIdxBits     uint // first level: 14-bit index and GHR / 4 KB
	L2PredBytes       int  // second level: 148 KB
	L2PredGHRBits     uint // 30
	L2PredLHRBits     uint // 10
	L2PredLHTBits     uint // local history table entries (log2)
	MispredictPenalty int  // 10 cycles recovery
	ConfBits          uint // predicate confidence counter width
	RASEntries        int

	// Idealizations (§4.2): no table aliasing, and a global history of
	// committed outcomes (scheme.Predicate.Retire, Conventional.Commit).
	// Replay's call site (stats batchPredicate) retires a compare at its
	// event, so the history holds every older outcome; the pipeline's
	// (trainPredictors, at commit) lacks the branches and compares still
	// in flight at fetch (ROADMAP item 16).
	IdealNoAlias    bool
	IdealPerfectGHR bool

	// SplitPVT statically partitions the predicate predictor's table
	// between the two predicate outputs instead of sharing it through
	// two hash functions (§3.3 ablation).
	SplitPVT bool

	// DisableGHRRepair turns off the §3.3 recovery action that corrects
	// a resolved compare's speculative global-history bit in place, so
	// corrupted bits persist — the knob behind the GHR-corruption
	// ablation.
	DisableGHRRepair bool
}

// Default returns the Table 1 configuration with the conventional
// two-level predictor and select-style predication.
func Default() Config {
	return Config{
		FetchWidth:    6,
		RenameWidth:   6,
		CommitWidth:   6,
		FrontendDepth: 3,

		ROBEntries:    256,
		IntIQEntries:  80,
		FPIQEntries:   80,
		BrIQEntries:   32,
		LoadQEntries:  64,
		StoreQEntries: 64,
		IntPhysRegs:   256,
		FPPhysRegs:    256,
		PredPhysRegs:  128,

		IntALUs:  4,
		FPALUs:   2,
		MemPorts: 2,
		BrUnits:  2,

		L1D:            CacheParams{SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64, LatCycles: 2, MSHRs: 12, WriteBuf: 16},
		L1I:            CacheParams{SizeBytes: 32 * 1024, Ways: 4, BlockBytes: 64, LatCycles: 1},
		L2:             CacheParams{SizeBytes: 1024 * 1024, Ways: 16, BlockBytes: 128, LatCycles: 8, MSHRs: 12, WriteBuf: 8},
		MemLat:         120,
		DTLBSize:       512,
		ITLBSize:       512,
		TLBMissPenalty: 10,

		Scheme:            SchemeConventional,
		Predication:       PredicationSelect,
		GshareIdxBits:     14,
		L2PredBytes:       148 * 1024,
		L2PredGHRBits:     30,
		L2PredLHRBits:     10,
		L2PredLHTBits:     12,
		MispredictPenalty: 10,
		ConfBits:          3,
		RASEntries:        32,
	}
}

// WithScheme returns a copy with the prediction scheme replaced. The
// predicate scheme also enables selective predication (the paper's full
// proposal); callers can override Predication afterwards for ablations.
func (c Config) WithScheme(s Scheme) Config {
	c.Scheme = s
	if s == SchemePredicate {
		c.Predication = PredicationSelective
	}
	return c
}

// Table1 renders the configuration as the paper's Table 1. The
// second-level access latency it prints is FrontendDepth: the model
// charges that latency nowhere else, since every second-level
// prediction becomes usable at rename, FrontendDepth cycles after
// fetch. The gshare history is as long as its index.
func (c Config) Table1() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-28s %s\n", k, v) }
	b.WriteString("Architectural Parameters\n")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	row("Fetch Width", fmt.Sprintf("Up to 2 bundles (%d instructions)", c.FetchWidth))
	row("Issue Queues", fmt.Sprintf("Integer: %d entries; FP: %d entries; Branch: %d entries",
		c.IntIQEntries, c.FPIQEntries, c.BrIQEntries))
	row("Load-Store Queue", fmt.Sprintf("2 separate queues of %d entries each", c.LoadQEntries))
	row("Reorder Buffer", fmt.Sprintf("%d entries", c.ROBEntries))
	row("L1D", fmt.Sprintf("%dKB, %dway, %dB block, %d cycle latency, %d MSHRs, %d write-buffer entries",
		c.L1D.SizeBytes/1024, c.L1D.Ways, c.L1D.BlockBytes, c.L1D.LatCycles, c.L1D.MSHRs, c.L1D.WriteBuf))
	row("L1I", fmt.Sprintf("%dKB, %d way, %dB block, %d cycle latency",
		c.L1I.SizeBytes/1024, c.L1I.Ways, c.L1I.BlockBytes, c.L1I.LatCycles))
	row("L2 unified", fmt.Sprintf("%dMB, %d way, %dB block, %d cycle latency, %d MSHRs, %d write-buffer entries",
		c.L2.SizeBytes/(1024*1024), c.L2.Ways, c.L2.BlockBytes, c.L2.LatCycles, c.L2.MSHRs, c.L2.WriteBuf))
	row("DTLB", fmt.Sprintf("%d entries, %d cycles miss penalty", c.DTLBSize, c.TLBMissPenalty))
	row("ITLB", fmt.Sprintf("%d entries, %d cycles miss penalty", c.ITLBSize, c.TLBMissPenalty))
	row("Main Memory", fmt.Sprintf("%d cycles of latency", c.MemLat))
	row("Multilevel Branch Predictor", fmt.Sprintf(
		"First level: Gshare %d-bit GHR, 4 KB, 1-cycle access. Second level: Perceptron, %d-bit GHR, %d-bit LHR, %d KB, %d-cycle access. %d cycles misprediction recovery",
		c.GshareIdxBits, c.L2PredGHRBits, c.L2PredLHRBits, c.L2PredBytes/1024, c.FrontendDepth, c.MispredictPenalty))
	row("Predicate Predictor", fmt.Sprintf(
		"Perceptron, %d-bit GHR, %d-bit LHR, %d KB, %d-cycle access. %d cycles misprediction recovery",
		c.L2PredGHRBits, c.L2PredLHRBits, c.L2PredBytes/1024, c.FrontendDepth, c.MispredictPenalty))
	return b.String()
}

// Limits on the predictor geometry, each far above Table 1. The table
// and budget limits keep one cell's predictor tables within tens of
// megabytes of host memory. Every history (Table 1: 14, 30 and 10
// bits) is one word, and confidence counters are bytes.
const (
	maxTableBits   = 20      // gshare and local history table index bits (Table 1: 14 and 12)
	maxPredBytes   = 8 << 20 // second-level predictor budget (Table 1: 148 KB)
	maxConfBits    = 8       // predicate confidence counter width (Table 1: 3)
	maxHistoryBits = predictor.MaxHistoryBits
)

// Validate checks the configuration for obviously broken values.
func (c Config) Validate() error {
	switch c.Scheme {
	case SchemeConventional, SchemePredicate, SchemePEPPA:
	default:
		return fmt.Errorf("config: unknown scheme %v", c.Scheme)
	}
	if c.FetchWidth < 1 || c.ROBEntries < 8 {
		return fmt.Errorf("config: fetch width %d / ROB %d too small", c.FetchWidth, c.ROBEntries)
	}
	if c.IntPhysRegs < 128+8 {
		return fmt.Errorf("config: %d int physical registers cannot back 128 architectural + rename margin", c.IntPhysRegs)
	}
	if c.FPPhysRegs < 128+8 {
		return fmt.Errorf("config: %d fp physical registers too few", c.FPPhysRegs)
	}
	if c.PredPhysRegs < 64+8 {
		return fmt.Errorf("config: %d predicate physical registers too few", c.PredPhysRegs)
	}
	for _, cp := range []CacheParams{c.L1D, c.L1I, c.L2} {
		if cp.Sets()*cp.Ways*cp.BlockBytes != cp.SizeBytes {
			return fmt.Errorf("config: cache geometry %+v does not divide evenly", cp)
		}
		if cp.MSHRs < 0 {
			return fmt.Errorf("config: cache %+v has a negative MSHR count", cp)
		}
	}
	if c.DTLBSize < 1 || c.ITLBSize < 1 {
		return fmt.Errorf("config: TLBs of %d (data) and %d (instruction) entries, need at least 1", c.DTLBSize, c.ITLBSize)
	}
	return c.validatePredictor()
}

// validatePredictor bounds the predictor geometry by the limits above.
func (c Config) validatePredictor() error {
	for _, f := range []struct {
		name     string
		val, max uint
	}{
		{"gshare index bits", c.GshareIdxBits, maxTableBits},
		{"local history table index bits", c.L2PredLHTBits, maxTableBits},
		{"second-level global history bits", c.L2PredGHRBits, maxHistoryBits},
		{"second-level local history bits", c.L2PredLHRBits, maxHistoryBits},
	} {
		if f.val > f.max {
			return fmt.Errorf("config: %s %d exceed the maximum of %d", f.name, f.val, f.max)
		}
	}
	if c.L2PredBytes < 1 || c.L2PredBytes > maxPredBytes {
		return fmt.Errorf("config: second-level predictor budget of %d bytes is outside 1..%d", c.L2PredBytes, maxPredBytes)
	}
	if c.ConfBits < 1 || c.ConfBits > maxConfBits {
		return fmt.Errorf("config: confidence counters of %d bits are outside 1..%d", c.ConfBits, maxConfBits)
	}
	// A split PVT gives each predicate output half the rows, so it needs
	// two (rows as the predictor's geometry counts them).
	if rows := predictor.NewGeometry(c.L2PredBytes, c.L2PredGHRBits, c.L2PredLHRBits, false).Rows(); c.SplitPVT && rows < 2 {
		return fmt.Errorf("config: a split PVT needs at least 2 rows, and %d bytes of %d-weight rows hold %d", c.L2PredBytes, c.L2PredGHRBits+c.L2PredLHRBits+1, rows)
	}
	return nil
}
