package stats

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/peppa"
	"repro/internal/pipeline"
	"repro/internal/predictor"
	"repro/internal/program"
	"repro/internal/trace"
)

// batchEvents is the shared-cursor decode granularity: the varint event
// stream is decoded once into a reused buffer of this many events, the
// scheme-independent frontend annotates the batch in stream order, and
// every scheme engine then replays the same decoded batch. Cancellation
// is checked once per batch, so even a full-suite replay stops within
// milliseconds of a cancel.
const batchEvents = 1024

// The replay engine's three timing-model constants. They stand in for
// pipeline properties a functional trace cannot carry, and are
// calibrated against full-pipeline runs of the suite (see the
// equivalence test) rather than derived purely from the geometry:
//
//   - earlyResolveDist: committed-instruction compare→branch distance
//     at or above which a branch is classified early-resolved (with a
//     6-wide front end of depth 3 and single-cycle compares, a
//     producer ~2+ fetch groups upstream has written back by the
//     consumer's rename; compares stalled on loads resolve later);
//
//   - trainWindow: the fetch-to-commit lag in compares. The pipeline
//     trains the predicate predictor at commit, so a fetched compare
//     is predicted with weights missing the trainings of the compares
//     still in flight (up to a ROB's worth on flush-free code);
//
//   - repairWindow: the fetch-to-writeback lag in compares. A
//     compare's speculative GHR push carries its predicted value until
//     the §3.3 repair at writeback, so the youngest few history bits
//     seen by a prediction are predictions, not outcomes.
//
// Both windows collapse when a speculative consumer branch mispredicts
// (the recovery flush refetches everything younger and stalls fetch
// past the commit of the resolving compare), which is what keeps
// mispredict-heavy code predicting with nearly-committed state — the
// engine drains its queues at each scored branch misprediction to
// reproduce that adaptivity.
const (
	earlyResolveDist uint64 = 32
	trainWindow             = 48
	repairWindow            = 8
)

// frontend is the scheme-independent half of the replay engine: the
// architectural predicate state reconstructed from compare records, the
// committed-instruction step counter, and the renaming-position table
// of the shared resolution model (in which nothing cancels, so every
// compare renames — exact for every scheme except selective
// predication, which keeps a cancellation-aware copy per engine). In a
// single-pass multi-scheme replay this state is computed once per event
// and its per-event products are materialized as notes, so N engines
// consume one frontend pass.
type frontend struct {
	predVal  [isa.NumPred]bool   // committed value
	prevVal  [isa.NumPred]bool   // value before the most recent write (PEP-PA's selector)
	prodStep [isa.NumPred]uint64 // 1 + step of the last renamer; 0 = none
	step     uint64              // committed-instruction position of the current event
}

// note is the frontend's per-event annotation: everything a scheme
// engine reads from shared architectural state, captured at the event's
// position in the stream so engines can replay a decoded batch after
// the frontend has already advanced past it.
type note struct {
	step uint64
	// EvCompare: the compare's two training values, resolved exactly as
	// the pipeline's execute stage does (a written destination takes the
	// outcome value, an unwritten valid destination keeps its old
	// read-modify-write value, and a p0 destination trains on the raw
	// outcome value).
	res1, res2 bool
	// EvCondBr: PEP-PA's local-history selector — the guard's previous
	// definition, or its committed value once the in-flight producer is
	// modeled as resolved.
	sel bool
}

// resolved reports whether predicate p's producing compare is modeled
// as resolved (written back) before the current instruction renames: no
// in-flight producer, or a producer at least earlyResolveDist committed
// instructions upstream.
func (f *frontend) resolved(p uint8) bool {
	last := f.prodStep[p]
	return last == 0 || f.step-last >= earlyResolveDist
}

// annotate computes one event's note and advances the shared
// architectural state. It must be called in stream order, before any
// engine replays the event.
func (f *frontend) annotate(ev *trace.Event, nt *note) {
	nt.step = f.step
	switch ev.Kind {
	case trace.EvCompare:
		res1, res2 := ev.Out.Val1, ev.Out.Val2
		if !ev.Out.Write1 && ev.P1 != uint8(isa.P0) {
			res1 = f.predVal[ev.P1]
		}
		if !ev.Out.Write2 && ev.P2 != uint8(isa.P0) {
			res2 = f.predVal[ev.P2]
		}
		nt.res1, nt.res2 = res1, res2
		// Renaming position under the shared resolution model (without
		// selective predication nothing cancels and every compare
		// renames).
		if ev.P1 != uint8(isa.P0) {
			f.prodStep[ev.P1] = f.step
		}
		if ev.P2 != uint8(isa.P0) {
			f.prodStep[ev.P2] = f.step
		}
		// Architectural predicate update (after resolving RMW old
		// values).
		if ev.Out.Write1 && ev.P1 != uint8(isa.P0) {
			f.prevVal[ev.P1] = f.predVal[ev.P1]
			f.predVal[ev.P1] = ev.Out.Val1
		}
		if ev.Out.Write2 && ev.P2 != uint8(isa.P0) {
			f.prevVal[ev.P2] = f.predVal[ev.P2]
			f.predVal[ev.P2] = ev.Out.Val2
		}
	case trace.EvCondBr:
		sel := f.prevVal[ev.QP]
		if f.resolved(ev.QP) {
			sel = f.predVal[ev.QP]
		}
		nt.sel = sel
	}
}

// pendingTrain is one compare's deferred predicate-predictor training.
type pendingTrain struct {
	lk         core.Lookup
	res1, res2 bool
}

// specBit is one unrepaired speculative GHR bit: the predicted value
// while in flight, replaced by the actual value once the compare's
// writeback repairs it (never, for rename-canceled compares or when
// the §3.3 repair is disabled).
type specBit struct {
	pred, act bool
	repair    bool
}

// EngineConfig is the replay-visible projection of a config.Config:
// exactly the fields the trace-replay engine reads. Everything else in
// a Config (widths, windows, caches, latencies, the first-level gshare,
// the recovery penalty) shapes only the pipeline's timing model, so two
// configurations with equal EngineConfigs replay to bit-identical
// statistics on every program. schemeEngine holds only this struct,
// which makes the compiler enforce the projection. Being comparable
// and independent of the program, it plans the façade's replay memo;
// within one ReplayAll pass the finer, program-dependent engineKey
// merges configurations whose tables alias the program's sites alike.
type EngineConfig struct {
	Scheme           config.Scheme
	Predication      config.PredicationMode
	L2PredBytes      int
	L2PredGHRBits    uint
	L2PredLHRBits    uint
	L2PredLHTBits    uint
	ConfBits         uint
	RASEntries       int
	IdealNoAlias     bool
	IdealPerfectGHR  bool
	SplitPVT         bool
	DisableGHRRepair bool
}

// EngineConfigOf projects a configuration onto its replay-visible
// fields. It does not validate: callers that replay run the full
// Config.Validate first.
func EngineConfigOf(c config.Config) EngineConfig {
	return EngineConfig{
		Scheme:           c.Scheme,
		Predication:      c.Predication,
		L2PredBytes:      c.L2PredBytes,
		L2PredGHRBits:    c.L2PredGHRBits,
		L2PredLHRBits:    c.L2PredLHRBits,
		L2PredLHTBits:    c.L2PredLHTBits,
		ConfBits:         c.ConfBits,
		RASEntries:       c.RASEntries,
		IdealNoAlias:     c.IdealNoAlias,
		IdealPerfectGHR:  c.IdealPerfectGHR,
		SplitPVT:         c.SplitPVT,
		DisableGHRRepair: c.DisableGHRRepair,
	}
}

// coreConfig is the predicate predictor of c.
func (c EngineConfig) coreConfig() core.Config {
	return core.Config{
		SizeBytes: c.L2PredBytes,
		GHRBits:   c.L2PredGHRBits,
		LHRBits:   c.L2PredLHRBits,
		LHTBits:   c.L2PredLHTBits,
		ConfBits:  c.ConfBits,
		Ideal:     c.IdealNoAlias,
		SplitPVT:  c.SplitPVT,
	}
}

// convIdeal reports whether the conventional predictor an engine of c
// reads is idealized: a conventional engine's follows its
// configuration, while a predicate engine's Figure 6b shadow is always
// the real table of its budget.
func (c EngineConfig) convIdeal() bool {
	return c.Scheme == config.SchemeConventional && c.IdealNoAlias
}

// engineKey is what an engine of one configuration can observe on one
// program: its EngineConfig with the table geometry (L2PredBytes,
// IdealNoAlias, SplitPVT) replaced by the two aliasing partitions that
// geometry induces on the program's sites (predictor.Partition). Every
// perceptron row and confidence counter starts out equal and is read
// and written only through the index of a site placed in it, so two
// configurations with equal keys replay the program to bit-identical
// statistics, and a pass runs one engine for both.
type engineKey struct {
	cfg EngineConfig // geometry fields zeroed
	// branches partitions the program's conditional-branch sites, in PC
	// order, into the rows of the conventional predictor the engine
	// reads (a predicate engine's shadow's); nil for PEP-PA.
	branches []int32
	// dests partitions the compare destinations, row1 and row2 of each
	// compare in PC order, into PVT rows; nil but for the predicate
	// scheme.
	dests []int32
}

// keyOf is the engine key of c on a program whose instructions' record
// kinds are kinds. Its partitions come from the placements the engines
// build their sites with (TwoLevel.Site, core.Predictor.Site), computed
// without allocating a table.
func keyOf(c EngineConfig, kinds []uint8) engineKey {
	var k engineKey
	if c.Scheme != config.SchemePEPPA {
		g := predictor.NewGeometry(c.L2PredBytes, c.L2PredGHRBits, c.L2PredLHRBits, c.convIdeal())
		var rows []int
		for pc, kind := range kinds {
			if kind == trace.EvCondBr {
				rows = append(rows, g.Place(pipeline.InstAddr(pc)))
			}
		}
		k.branches = predictor.Partition(rows)
	}
	if c.Scheme == config.SchemePredicate {
		l := core.NewLayout(c.coreConfig())
		var rows []int
		for pc, kind := range kinds {
			if kind == trace.EvCompare {
				r1, r2 := l.Place(pipeline.InstAddr(pc))
				rows = append(rows, r1, r2)
			}
		}
		k.dests = predictor.Partition(rows)
	}
	c.L2PredBytes, c.IdealNoAlias, c.SplitPVT = 0, false, false
	k.cfg = c
	return k
}

// equal compares two keys exactly, partitions element for element.
func (k engineKey) equal(o engineKey) bool {
	return k.cfg == o.cfg && slices.Equal(k.branches, o.branches) && slices.Equal(k.dests, o.dests)
}

// Partitions returns the aliasing partitions an engine of cfg observes
// on prog: its conditional-branch sites' in the conventional predictor
// it reads, and its compare destinations' in the PVT (see engineKey).
// ReplayAll runs one engine for configurations whose partitions and
// other replay-visible fields are equal.
func Partitions(cfg config.Config, prog *program.Program) (branches, dests []int32) {
	k := keyOf(EngineConfigOf(cfg), kindsOf(prog))
	return k.branches, k.dests
}

// convKey identifies one conventional second-level predictor of a
// replay pass by what its outcomes depend on: the history widths and
// the partition of the program's conditional branches into perceptron
// rows. Budgets and idealizations that partition the branches alike
// share one predictor.
type convKey struct {
	ghr, lhr, lht uint
	branches      []int32
}

func (k convKey) equal(o convKey) bool {
	return k.ghr == o.ghr && k.lhr == o.lhr && k.lht == o.lht && slices.Equal(k.branches, o.branches)
}

// convPass is one conventional predictor a replay pass shares. A
// conventional engine and a predicate engine's Figure 6b shadow both
// predict every committed conditional branch, in commit order, with a
// history fed by committed outcomes and training at once, so the
// predictor's outcomes depend only on the branch stream and its key:
// the pass runs it once per batch, after the frontend, and each engine
// of that key reads the per-event miss bits.
type convPass struct {
	key   convKey
	tl    *predictor.TwoLevel
	ghr   predictor.History
	sites []predictor.TwoLevelSite // per PC; set at conditional branches
	// miss[i] reports whether the predictor mispredicted event i of the
	// current batch (read at EvCondBr events only).
	miss [batchEvents]bool
}

// newConvPass builds the conventional predictor an engine of c reads,
// whose key is k, for a program whose instructions' record kinds are
// kinds.
func newConvPass(k convKey, c EngineConfig, kinds []uint8) *convPass {
	p := &convPass{key: k, tl: predictor.NewTwoLevel(c.L2PredBytes, k.ghr, k.lhr, k.lht, c.convIdeal())}
	p.ghr.N = k.ghr
	p.sites = make([]predictor.TwoLevelSite, len(kinds))
	for pc, kind := range kinds {
		if kind == trace.EvCondBr {
			p.sites[pc] = p.tl.Site(pipeline.InstAddr(pc))
		}
	}
	return p
}

// run predicts and trains every conditional branch of a batch.
func (c *convPass) run(evs []trace.Event) {
	for i := range evs {
		ev := &evs[i]
		if ev.Kind != trace.EvCondBr {
			continue
		}
		lk := c.tl.Predict(c.sites[ev.PC], c.ghr.Snapshot())
		c.miss[i] = lk.Taken != ev.Taken
		c.tl.Train(lk, ev.Taken)
		c.ghr.Push(ev.Taken)
	}
}

// site is one static instruction's place in an engine's own
// predictors, built once per PC when the engine is constructed.
type site struct {
	pp   core.Site  // compare (predicate scheme)
	pep  peppa.Site // conditional branch (PEP-PA)
	itab int32      // indirect branch: last-target table slot
}

// schemeEngine is the per-scheme half of the trace-driven predictor
// engine: one predictor organization replayed in commit order with
// immediate training, touching none of the out-of-order machinery. The
// scheme-independent state lives in the frontend, and the conventional
// predictor in the pass's shared convPass; what remains here is the
// second-level predictor, the PPRF prediction mirror, the
// delayed-training queue and the speculative-GHR ring — everything
// whose evolution depends on the organization under test. See
// DESIGN.md ("Execution modes") for the fidelity contract: commit-order predictor state evolution is exact (wrong-path
// speculation is invisible to training, and speculative history pushes
// resolve to committed outcomes), while effects that depend on
// in-flight overlap — training delay between fetch and commit,
// early-resolution timing — are modeled, not simulated.
type schemeEngine struct {
	cfg EngineConfig
	key engineKey

	// PPRF prediction mirror (predicate scheme): the predicted value a
	// speculative consumer would read for each architectural predicate
	// and the prediction's confidence.
	predPred [isa.NumPred]bool
	predConf [isa.NumPred]bool
	// Cancellation-aware renaming positions (predicate scheme): like
	// the frontend's table, but a rename-canceled compare does not
	// rename, so selective predication needs its own copy.
	prodStep [isa.NumPred]uint64

	// Scheme state (one second-level active, as in the pipeline). The
	// conventional predictor, and the predicate scheme's Figure 6b
	// shadow, are the pass's conv.
	conv    *convPass
	pep     *peppa.Predictor
	pp      *core.Predictor
	pGHR    predictor.History // speculative-with-repair history mirror (predicate scheme)
	retired predictor.History // commit-order history (perfect-GHR idealization)
	sites   []site            // per PC

	// Delayed-training queue (predicate scheme): a fixed circular
	// buffer — the drain-before-push in the compare path bounds the
	// live length at trainWindow — so steady-state replay does not
	// allocate.
	trainQ    [trainWindow]pendingTrain
	trainHead int
	trainLen  int

	// Speculative-GHR ring (predicate scheme), bounded at repairWindow
	// live bits. ringBits mirrors the live entries' predicted values
	// (oldest at the highest bit) so composing the fetched-compare
	// history is O(1) instead of a ring walk.
	ring     [repairWindow]specBit
	ringHead int
	ringLen  int
	ringBits uint64

	ras  *predictor.RAS
	itab *predictor.IndirectTable

	st pipeline.Stats
	ns int64 // engine phase time on a timed replay's clock
}

// newSchemeEngine builds the engine of one validated configuration,
// whose key is k, for a program whose instructions' record kinds are
// kinds.
func newSchemeEngine(cfg EngineConfig, k engineKey, kinds []uint8) (*schemeEngine, error) {
	e := &schemeEngine{
		cfg:  cfg,
		key:  k,
		ras:  predictor.NewRAS(cfg.RASEntries),
		itab: predictor.NewIndirectTable(10),
	}
	e.pGHR.N = cfg.L2PredGHRBits
	e.retired.N = cfg.L2PredGHRBits
	e.predPred[isa.P0] = true
	switch cfg.Scheme {
	case config.SchemeConventional:
		// Its predictor is the pass's (shareConventional).
	case config.SchemePEPPA:
		e.pep = peppa.New(peppa.DefaultConfig())
	case config.SchemePredicate:
		e.pp = core.New(cfg.coreConfig())
	default:
		return nil, fmt.Errorf("stats: unknown scheme %v", cfg.Scheme)
	}
	e.sites = make([]site, len(kinds))
	for pc, kind := range kinds {
		addr := pipeline.InstAddr(pc)
		switch kind {
		case trace.EvCompare:
			if e.pp != nil {
				e.sites[pc].pp = e.pp.Site(addr)
			}
		case trace.EvCondBr:
			if e.pep != nil {
				e.sites[pc].pep = e.pep.Site(addr)
			}
		case trace.EvBrInd:
			e.sites[pc].itab = int32(e.itab.Slot(addr))
		}
	}
	return e, nil
}

// convKey reports the conventional predictor the engine reads: its own
// configuration's for a conventional engine, the real table of its
// budget for a predicate engine's shadow, none for PEP-PA.
func (e *schemeEngine) convKey() (convKey, bool) {
	k := convKey{ghr: e.cfg.L2PredGHRBits, lhr: e.cfg.L2PredLHRBits, lht: e.cfg.L2PredLHTBits, branches: e.key.branches}
	return k, e.cfg.Scheme != config.SchemePEPPA
}

// Replay runs a trace of prog through the configured predictor
// organization for a commit budget (0 = the whole trace): the
// one-configuration reference that ReplayAll is checked against.
func Replay(cfg config.Config, prog *program.Program, tr *trace.Trace, commits uint64) (pipeline.Stats, error) {
	p, err := ReplayAll(context.Background(), []config.Config{cfg}, prog, tr, commits, nil)
	if len(p.Stats) != 1 {
		return pipeline.Stats{}, err
	}
	return p.Stats[0], err
}

// Pass is what one ReplayAll pass returns.
type Pass struct {
	// Stats is parallel to the configurations: each entry is
	// bit-identical to an independent Replay of its configuration.
	Stats []pipeline.Stats
	// Engine is parallel to the configurations: the index of the
	// configuration whose engine replayed each one, its own or an
	// earlier one's with an equal engine key.
	Engine []int
	// Timings is the phase breakdown on the pass's clock; nil untimed.
	Timings *Timings
}

// Engines returns the number of engines the pass ran.
func (p Pass) Engines() int {
	n := 0
	for i, j := range p.Engine {
		if i == j {
			n++
		}
	}
	return n
}

// ReplayAll replays one recorded trace of prog through N predictor
// organizations in a single pass: the event stream is decoded once, the
// scheme-independent frontend is computed once, each distinct
// conventional predictor runs once, and one engine per distinct engine
// key replays each decoded batch in lockstep. Configurations whose
// tables alias prog's sites alike (engineKey) share one engine, so a
// table size that cannot move this program's statistics costs nothing.
// The Pass's Stats are parallel to cfgs, and each entry is
// bit-identical to an independent Replay of that configuration. A trace
// recorded from another program, or an event at a PC that holds no
// instruction of its kind, fails with an error wrapping
// trace.ErrCorrupt. Cancellation is checked every decoded batch, so
// even a full-suite replay stops within milliseconds of a cancel; the
// partial statistics accumulated so far are returned alongside the
// context error.
//
// With a non-nil now (monotonic nanoseconds; tests inject fakes),
// ReplayAll also returns the per-phase Timings sampled on that clock,
// even when it fails. The clock reads sit between phases, never inside
// them, so the statistics are bit-identical to an untimed replay. With
// now nil the Timings are nil.
func ReplayAll(ctx context.Context, cfgs []config.Config, prog *program.Program, tr *trace.Trace, commits uint64, now func() int64) (Pass, error) {
	var p Pass
	if now != nil {
		p.Timings = &Timings{EngineNS: make([]int64, len(cfgs))}
	}
	if len(cfgs) == 0 {
		return p, fmt.Errorf("stats: replay needs at least one configuration")
	}
	if h := trace.HashProgram(prog); tr.ProgHash != h {
		return p, fmt.Errorf("stats: %w: trace of program %#x replayed against %s (%#x)", trace.ErrCorrupt, tr.ProgHash, prog.Name, h)
	}
	kinds := kindsOf(prog)
	keys := make([]engineKey, len(cfgs))
	built := make([]*schemeEngine, len(cfgs)) // by configuration; nil where another's engine serves it
	var engines []*schemeEngine
	engine := make([]int, len(cfgs))
	for i, full := range cfgs {
		if err := full.Validate(); err != nil {
			return p, err
		}
		cfg := EngineConfigOf(full)
		keys[i] = keyOf(cfg, kinds)
		if j := slices.IndexFunc(keys[:i], keys[i].equal); j >= 0 {
			engine[i] = j
			continue
		}
		e, err := newSchemeEngine(cfg, keys[i], kinds)
		if err != nil {
			return p, err
		}
		engine[i], built[i] = i, e
		engines = append(engines, e)
	}
	err := replay(ctx, engines, shareConventional(engines, kinds), kinds, tr, commits, p.Timings, now)
	p.Engine = engine
	p.Stats = make([]pipeline.Stats, len(cfgs))
	for i, j := range engine {
		p.Stats[i] = built[j].st
		if p.Timings != nil && i == j {
			p.Timings.EngineNS[i] = built[i].ns
		}
	}
	return p, err
}

// kindsOf returns the record kind of every instruction of prog.
func kindsOf(prog *program.Program) []uint8 {
	kinds := make([]uint8, prog.Len())
	for pc := range kinds {
		kinds[pc] = trace.KindOf(prog.At(pc))
	}
	return kinds
}

// shareConventional gives every engine that reads a conventional
// predictor the pass's predictor of its key, building one per distinct
// (history widths, branch partition), and returns them in the order
// built.
func shareConventional(engines []*schemeEngine, kinds []uint8) []*convPass {
	var convs []*convPass
	for _, e := range engines {
		k, ok := e.convKey()
		if !ok {
			continue
		}
		i := slices.IndexFunc(convs, func(c *convPass) bool { return c.key.equal(k) })
		if i < 0 {
			i = len(convs)
			convs = append(convs, newConvPass(k, e.cfg, kinds))
		}
		e.conv = convs[i]
	}
	return convs
}

// replay drives the shared cursor: decode a batch, check each event
// against kinds (the record kind of the instruction at every PC) and
// annotate it through the frontend up to the commit budget or the halt
// record (which no engine acts on), run the shared conventional
// predictors over the admitted events, then fan them to every engine.
// With tm nil the timed branches are dead and replay is exactly the
// untimed loop; otherwise phase durations accumulate once per batch
// into tm and each engine's ns, the conventional predictors counting as
// frontend.
func replay(ctx context.Context, engines []*schemeEngine, convs []*convPass, kinds []uint8, tr *trace.Trace, commits uint64, tm *Timings, now func() int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	timed := tm != nil
	evs := make([]trace.Event, batchEvents)
	notes := make([]note, batchEvents)
	var fe frontend
	fe.predVal[isa.P0] = true
	fe.prevVal[isa.P0] = true
	cur := tr.EventCursor()
	var committed uint64
	halted := false
	done := false
	var t0 int64
	for !done {
		if timed {
			t0 = now()
		}
		nDec := cur.NextBatch(evs)
		if nDec == 0 {
			break
		}
		if timed {
			t1 := now()
			tm.DecodeNS += t1 - t0
			t0 = t1
		}
		// Admit events up to the commit budget.
		n := 0
		for n < nDec && !done {
			ev := &evs[n]
			committed += ev.Gap
			if commits > 0 && committed >= commits {
				committed = commits
				done = true
				break
			}
			committed++
			fe.step = committed
			if ev.Kind == trace.EvHalt {
				halted = true
				done = true
				break
			}
			if uint(ev.PC) >= uint(len(kinds)) || kinds[ev.PC] != ev.Kind {
				return offSite(ev, kinds)
			}
			fe.annotate(ev, &notes[n])
			n++
			done = commits > 0 && committed >= commits
		}
		for _, c := range convs {
			c.run(evs[:n])
		}
		if timed {
			t1 := now()
			tm.FrontendNS += t1 - t0
			t0 = t1
			tm.Batches++
		}
		for _, e := range engines {
			e.applyBatch(evs[:n], notes[:n])
			if timed {
				t1 := now()
				e.ns += t1 - t0
				t0 = t1
			}
		}
		// A replay that just reached its budget or halt is complete: a
		// cancel racing completion must not turn its full statistics
		// into a context error, so the check is skipped once done.
		if err := ctx.Err(); err != nil && !done {
			for _, e := range engines {
				e.st.Committed = committed
			}
			return err
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if !done {
		// The stream ended in plain instructions, which have no record:
		// the trace's step count accounts for them.
		committed = tr.Steps
		if commits > 0 {
			committed = min(committed, commits)
		}
	}
	for _, e := range engines {
		e.st.Committed = committed
		e.st.HaltSeen = halted
	}
	return nil
}

// offSite reports an event at a PC that holds no instruction of its
// kind.
func offSite(ev *trace.Event, kinds []uint8) error {
	if uint(ev.PC) >= uint(len(kinds)) {
		return fmt.Errorf("stats: %w: event kind %d at pc %d, past the program's %d instructions", trace.ErrCorrupt, ev.Kind, ev.PC, len(kinds))
	}
	return fmt.Errorf("stats: %w: event kind %d at pc %d, which holds an instruction of kind %d", trace.ErrCorrupt, ev.Kind, ev.PC, kinds[ev.PC])
}

// applyBatch replays one annotated batch through the engine's
// configured organization. The per-scheme loops are split so each
// engine's hot path stays monomorphic over a whole batch.
func (e *schemeEngine) applyBatch(evs []trace.Event, notes []note) {
	switch e.cfg.Scheme {
	case config.SchemeConventional:
		e.batchConventional(evs)
	case config.SchemePEPPA:
		e.batchPEPPA(evs, notes)
	case config.SchemePredicate:
		e.batchPredicate(evs, notes)
	}
}

func (e *schemeEngine) batchConventional(evs []trace.Event) {
	miss := &e.conv.miss
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.EvCompare:
			e.st.Compares++
		case trace.EvCondBr:
			// Speculative and retired histories coincide in commit order
			// (each committed branch contributes its committed outcome),
			// so the perfect-GHR idealization is the identity here, and
			// the pass's conventional predictor has scored the branch.
			e.st.CondBranches++
			if miss[i] {
				e.st.BranchMispred++
			}
		default:
			e.target(ev)
		}
	}
}

func (e *schemeEngine) batchPEPPA(evs []trace.Event, notes []note) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.EvCompare:
			e.st.Compares++
		case trace.EvCondBr:
			// PEP-PA selects a local history by the branch guard's
			// previous definition; whether the in-flight producer has
			// written back by fetch time follows the shared resolution
			// model, precomputed as the note's selector.
			e.st.CondBranches++
			lk := e.pep.Predict(e.sites[ev.PC].pep, notes[i].sel)
			if lk.Taken != ev.Taken {
				e.st.BranchMispred++
			}
			e.pep.Update(lk, ev.Taken)
		default:
			e.target(ev)
		}
	}
}

func (e *schemeEngine) batchPredicate(evs []trace.Event, notes []note) {
	selective := e.cfg.Predication == config.PredicationSelective
	perfect := e.cfg.IdealPerfectGHR
	repair := !e.cfg.DisableGHRRepair
	miss := &e.conv.miss
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.EvCompare:
			nt := &notes[i]
			e.st.Compares++
			// Selective predication cancels a guarded compare when its
			// guard is usable at rename — resolved, or confidently
			// predicted — and false. A wrong confident cancellation is
			// flushed and refetched with the resolved guard, so the
			// committed outcome is always governed by the actual guard
			// value. A non-usable false guard falls back to a select
			// micro-op, which executes and trains on its
			// read-modify-write result (unc compares always execute:
			// they clear their destinations even when nullified — the
			// pipeline's uncFalse path).
			usable := e.resolvedAt(ev.QP, nt.step) || e.predConf[ev.QP]
			canceled := selective && ev.QP != uint8(isa.P0) && !ev.QPTrue && !ev.Unc && usable

			// Apply the trainings that have left the in-flight window,
			// as commit would have by this compare's fetch, then predict
			// with the (possibly stale) weights and speculative history.
			for e.trainLen >= trainWindow {
				e.popTraining()
			}
			ghr := e.specGHR()
			if perfect {
				ghr = e.retired.Snapshot()
			}
			lk := e.pp.Predict(e.sites[ev.PC].pp, ghr)

			if canceled {
				// A rename-canceled compare never executes: its
				// speculative GHR push is never repaired (and its
				// speculative local-history push persists the same way —
				// pp.Predict above mirrors it), it never trains, and it
				// does not rename.
				e.pushSpecBit(specBit{pred: lk.Val1, act: lk.Val1})
			} else {
				e.st.PredPredictions += 2
				if lk.Val1 != nt.res1 {
					e.st.PredMispredicts++
				}
				if lk.Val2 != nt.res2 {
					e.st.PredMispredicts++
				}
				e.pushTraining(pendingTrain{lk: lk, res1: nt.res1, res2: nt.res2})
				e.retired.Push(nt.res1)
				e.pushSpecBit(specBit{pred: lk.Val1, act: nt.res1, repair: repair})
				// Rename mirror: consumers read these predicted values
				// (and their at-prediction confidence) until the compare
				// resolves.
				if ev.P1 != uint8(isa.P0) {
					e.predPred[ev.P1] = lk.Val1
					e.predConf[ev.P1] = lk.Conf1
				}
				if ev.P2 != uint8(isa.P0) {
					e.predPred[ev.P2] = lk.Val2
					e.predConf[ev.P2] = lk.Conf2
				}
				if ev.P1 != uint8(isa.P0) {
					e.prodStep[ev.P1] = nt.step
				}
				if ev.P2 != uint8(isa.P0) {
					e.prodStep[ev.P2] = nt.step
				}
			}
		case trace.EvCondBr:
			e.st.CondBranches++
			early := e.resolvedAt(ev.QP, notes[i].step)
			if early {
				// The branch read its guard's computed value from the
				// PPRF: correct by construction (§3.1).
				e.st.EarlyResolved++
			} else if e.predPred[ev.QP] != ev.Taken {
				// Speculative consumer of a wrong predicate prediction;
				// the pipeline scores this at consumer-flush recovery.
				// The recovery refetches everything younger and stalls
				// fetch, so the in-flight windows collapse.
				e.st.BranchMispred++
				e.drainWindows()
			}
			// Shadow conventional predictor for the Figure 6b breakdown —
			// predicted and trained at commit in the pipeline too, so
			// the pass's conventional predictor of this geometry scores
			// it exactly.
			e.st.ShadowCondBranches++
			if miss[i] {
				e.st.ShadowMispred++
				if early {
					e.st.EarlyResolvedHit++
				}
			}
		default:
			e.target(ev)
		}
	}
}

// target replays one target-predicted event (call/return/indirect)
// against the engine's RAS and last-target table.
func (e *schemeEngine) target(ev *trace.Event) {
	switch ev.Kind {
	case trace.EvCall:
		e.ras.Push(ev.PC + 1)
	case trace.EvRet:
		if e.ras.Pop() != ev.Target {
			e.st.TargetMispred++
		}
	case trace.EvBrInd:
		slot := int(e.sites[ev.PC].itab)
		predNext := e.itab.Predict(slot)
		actualNext := ev.PC + 1
		if ev.Taken {
			actualNext = ev.Target
		}
		if predNext != actualNext {
			e.st.TargetMispred++
		}
		e.itab.Update(slot, ev.Target)
	}
}

// resolvedAt is the frontend's resolution model over the engine's own
// cancellation-aware renaming positions (predicate scheme).
func (e *schemeEngine) resolvedAt(p uint8, step uint64) bool {
	last := e.prodStep[p]
	return last == 0 || step-last >= earlyResolveDist
}

func (e *schemeEngine) pushTraining(p pendingTrain) {
	i := e.trainHead + e.trainLen
	if i >= trainWindow {
		i -= trainWindow
	}
	e.trainQ[i] = p
	e.trainLen++
}

// popTraining applies the oldest deferred training.
func (e *schemeEngine) popTraining() {
	p := &e.trainQ[e.trainHead]
	if e.trainHead++; e.trainHead == trainWindow {
		e.trainHead = 0
	}
	e.trainLen--
	e.pp.Train(p.lk, p.res1, p.res2)
}

// pushSpecBit appends a speculative history bit, evicting (and
// repairing) the oldest once the writeback window is full.
func (e *schemeEngine) pushSpecBit(b specBit) {
	if e.ringLen >= repairWindow {
		e.evictSpecBit()
	}
	i := e.ringHead + e.ringLen
	if i >= repairWindow {
		i -= repairWindow
	}
	e.ring[i] = b
	e.ringLen++
	e.ringBits <<= 1
	if b.pred {
		e.ringBits |= 1
	}
}

func (e *schemeEngine) evictSpecBit() {
	b := &e.ring[e.ringHead]
	if e.ringHead++; e.ringHead == repairWindow {
		e.ringHead = 0
	}
	e.ringLen--
	e.ringBits &= uint64(1)<<uint(e.ringLen) - 1
	v := b.pred
	if b.repair {
		v = b.act
	}
	e.pGHR.Push(v)
}

// specGHR composes the history a fetched compare sees: repaired bits
// beyond the writeback window, predicted bits inside it.
func (e *schemeEngine) specGHR() uint64 {
	v := e.pGHR.Snapshot()<<uint(e.ringLen) | e.ringBits
	if n := e.pGHR.N; n < 64 {
		v &= uint64(1)<<n - 1
	}
	return v
}

// drainWindows models a recovery flush: every pending training is
// applied and every speculative history bit repaired.
func (e *schemeEngine) drainWindows() {
	for e.trainLen > 0 {
		e.popTraining()
	}
	for e.ringLen > 0 {
		e.evictSpecBit()
	}
}
