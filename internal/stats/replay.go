package stats

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/predictor"
	"repro/internal/program"
	"repro/internal/scheme"
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

// resolved reports whether predicate p's producing compare, renamed at
// prodStep[p], is modeled as resolved (written back) before the
// instruction at step renames: no in-flight producer, or a producer at
// least earlyResolveDist committed instructions upstream.
func resolved(prodStep *[isa.NumPred]uint64, p uint8, step uint64) bool {
	last := prodStep[p]
	return last == 0 || step-last >= earlyResolveDist
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
		// renames), and the architectural predicate update after
		// resolving RMW old values.
		if ev.P1 != uint8(isa.P0) {
			f.prodStep[ev.P1] = f.step
			if ev.Out.Write1 {
				f.prevVal[ev.P1], f.predVal[ev.P1] = f.predVal[ev.P1], ev.Out.Val1
			}
		}
		if ev.P2 != uint8(isa.P0) {
			f.prodStep[ev.P2] = f.step
			if ev.Out.Write2 {
				f.prevVal[ev.P2], f.predVal[ev.P2] = f.predVal[ev.P2], ev.Out.Val2
			}
		}
	case trace.EvCondBr:
		sel := f.prevVal[ev.QP]
		if resolved(&f.prodStep, ev.QP, f.step) {
			sel = f.predVal[ev.QP]
		}
		nt.sel = sel
	}
}

// pendingTrain is one compare's deferred predicate-predictor training:
// the lookup the predictor filled in place, and the training values.
type pendingTrain struct {
	lk         core.Lookup
	res1, res2 bool
	pending    bool
}

// pendingRepair is one compare's deferred §3.3 repair: the ordinal of
// its speculative history push and the outcome its bit takes.
type pendingRepair struct {
	ord     int64
	act     bool
	pending bool
}

// EngineConfig is the replay-visible projection of a config.Config,
// the predictor side's (scheme.Config). It plans the façade's replay
// memo; within one ReplayAll pass the finer, program-dependent
// engineKey merges configurations whose tables alias the program's
// sites alike.
type EngineConfig = scheme.Config

// EngineConfigOf projects a configuration onto its replay-visible
// fields (scheme.ConfigOf).
func EngineConfigOf(c config.Config) EngineConfig { return scheme.ConfigOf(c) }

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
// build their sites with (scheme.Partitions).
func keyOf(c EngineConfig, kinds []uint8) engineKey {
	var k engineKey
	k.branches, k.dests = scheme.Partitions(c, kinds)
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
	k := keyOf(EngineConfigOf(cfg), scheme.Kinds(nil, prog))
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

// schemeEngine is the per-scheme half of the trace-driven predictor
// engine: one predictor organization replayed in commit order, touching
// none of the out-of-order machinery. The scheme-independent state
// lives in the frontend, and the conventional predictor in the pass's
// convPass; here are the scheme's predictor side (package scheme), the
// PPRF prediction mirror, and the clock that calls the predicate scheme
// at its modeled lags: the delayed trainings and the pending repairs.
// DESIGN.md ("Execution modes") has the fidelity contract: commit-order
// state evolution is exact, while effects of in-flight overlap
// (training delay, early-resolution timing) are modeled, not simulated.
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
	conv *convPass
	pep  scheme.PEPPA
	pred *scheme.Predicate

	// Delayed trainings (predicate scheme), by the compare's ordinal
	// among the trained ones (trains) modulo trainWindow: a compare
	// trains when trainWindow younger ones have claimed a training, or
	// at a drain. The slot a compare predicts into is the next to
	// claim, whose training from trainWindow compares ago goes first.
	trainQ [trainWindow]pendingTrain
	trains uint64
	// drained is trains at the last drain: only the trainings claimed
	// since, the last trainWindow of them at most, can be pending.
	drained uint64

	// Pending §3.3 repairs (predicate scheme), by push ordinal modulo
	// repairWindow: a compare whose first prediction was wrong keeps
	// its predicted history bit until repairWindow younger compares
	// have pushed theirs, or a drain.
	repairs [repairWindow]pendingRepair

	ras      *predictor.RAS
	itab     *predictor.IndirectTable
	itabSlot []int32 // per PC; set at indirect branches

	st pipeline.Stats
	ns int64 // engine phase time on a timed replay's clock
}

// newSchemeEngine builds the engine of one validated configuration,
// whose key is k, for a program whose instructions' record kinds are
// kinds. A conventional engine's predictor is the pass's
// (shareConventional).
func newSchemeEngine(cfg EngineConfig, k engineKey, kinds []uint8) *schemeEngine {
	e := &schemeEngine{cfg: cfg, key: k, ras: predictor.NewRAS(cfg.RASEntries), itab: predictor.NewIndirectTable(10)}
	e.itabSlot = scheme.Sites(nil, kinds, trace.EvBrInd, func(addr uint64) int32 { return int32(e.itab.Slot(addr)) })
	e.predPred[isa.P0] = true
	switch cfg.Scheme {
	case config.SchemePEPPA:
		e.pep = scheme.NewPEPPA(kinds)
	case config.SchemePredicate:
		e.pred = scheme.NewPredicate(cfg, kinds)
	}
	return e
}

// Replay runs a trace of prog through the configured predictor
// organization for a commit budget (0 = the whole trace): the
// one-configuration reference that ReplayAll is checked against.
func Replay(cfg config.Config, prog *program.Program, tr *trace.Trace, commits uint64) (pipeline.Stats, error) {
	p, err := ReplayAll(context.Background(), []config.Config{cfg}, prog, tr, commits, nil, nil)
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
	// ConvRun counts the conventional predictors the pass ran, and
	// ConvReused those whose outcomes it read from the store instead.
	ConvRun, ConvReused int
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
// With a non-nil store, a conventional predictor whose outcomes an
// earlier completed pass over prog stored there is not run again: the
// pass reads its miss bits, and stores the outcomes of the ones it
// runs once it completes (Outcomes). The pass never waits on another
// pass sharing the store. The statistics are bit-identical with or
// without a store.
//
// With a non-nil now (monotonic nanoseconds; tests inject fakes),
// ReplayAll also returns the per-phase Timings sampled on that clock,
// even when it fails. The clock reads sit between phases, never inside
// them, so the statistics are bit-identical to an untimed replay. With
// now nil the Timings are nil.
func ReplayAll(ctx context.Context, cfgs []config.Config, prog *program.Program, tr *trace.Trace, commits uint64, store *Outcomes, now func() int64) (Pass, error) {
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
	kinds := scheme.Kinds(nil, prog)
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
		e := newSchemeEngine(cfg, keys[i], kinds)
		engine[i], built[i] = i, e
		engines = append(engines, e)
	}
	convs := shareConventional(engines)
	if store != nil {
		store.lookup(tr.ProgHash, budgetKey(tr, commits), convs)
	}
	for _, c := range convs {
		c.build(kinds)
		if c.stored != nil {
			p.ConvReused++
		} else {
			p.ConvRun++
		}
	}
	err := replay(ctx, engines, convs, kinds, tr, commits, p.Timings, now)
	if store != nil && err == nil {
		store.store(tr.ProgHash, budgetKey(tr, commits), convs)
	}
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

// shareConventional gives every engine that reads a conventional
// predictor (scheme.ConvOf: a conventional engine's own, a predicate
// engine's shadow) the pass's predictor of its key, one per distinct
// (history widths, branch partition), and returns them in the order
// first read, still to be built.
func shareConventional(engines []*schemeEngine) []*convPass {
	var convs []*convPass
	for _, e := range engines {
		if e.cfg.Scheme == config.SchemePEPPA {
			continue
		}
		k := convKey{ghr: e.cfg.L2PredGHRBits, lhr: e.cfg.L2PredLHRBits, lht: e.cfg.L2PredLHTBits, branches: e.key.branches}
		i := slices.IndexFunc(convs, func(c *convPass) bool { return c.key.equal(k) })
		if i < 0 {
			i = len(convs)
			convs = append(convs, &convPass{key: k, cfg: e.cfg})
		}
		e.conv = convs[i]
	}
	return convs
}

// replay drives the shared cursor: decode a batch, check each event
// against kinds (the record kind of the instruction at every PC) and
// annotate it through the frontend up to the commit budget or the halt
// record (which no engine acts on), score the admitted events with the
// pass's conventional predictors, run or read from the store, then fan
// them to every engine. With tm nil the timed branches are dead and
// replay is exactly the untimed loop; otherwise phase durations
// accumulate once per batch into tm and each engine's ns, the
// conventional predictors counting as frontend.
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
	for b := 0; !done; b++ {
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
			if err := c.batch(b, evs[:n]); err != nil {
				return err
			}
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
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.EvCompare:
			e.st.Compares++
		case trace.EvCondBr:
			e.st.CondBranches++
		default:
			e.target(ev)
		}
	}
	// Speculative and retired histories coincide in commit order (each
	// committed branch contributes its committed outcome), so the
	// perfect-GHR idealization is the identity here, and the pass's
	// conventional predictor has scored every branch.
	if len(evs) > 0 {
		e.st.BranchMispred += e.conv.misses()
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
			// model, precomputed as the note's selector. It is
			// predicted and trained at once.
			e.st.CondBranches++
			lk := e.pep.Predict(ev.PC, notes[i].sel)
			if lk.Taken != ev.Taken {
				e.st.BranchMispred++
			}
			e.pep.Commit(&lk, ev.Taken)
		default:
			e.target(ev)
		}
	}
}

func (e *schemeEngine) batchPredicate(evs []trace.Event, notes []note) {
	pred, conv := e.pred, e.conv
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
			usable := resolved(&e.prodStep, ev.QP, nt.step) || e.predConf[ev.QP]
			canceled := ev.QP != uint8(isa.P0) && !ev.Unc && pred.Decide(usable, ev.QPTrue) == scheme.Cancel

			// Commit the training that has left the in-flight window,
			// predict into its slot with the (possibly stale) weights and
			// history, and resolve the push that left the writeback one.
			pt := &e.trainQ[e.trains%trainWindow]
			if pt.pending {
				pred.Train(&pt.lk, pt.res1, pt.res2)
			}
			lk := &pt.lk
			_, ord := pred.Predict(lk, ev.PC)
			r := &e.repairs[uint64(ord)%repairWindow]
			if r.pending {
				pred.Resolve(r.ord, r.act)
				r.pending = false
			}
			// A rename-canceled compare never executes: its speculative
			// pushes are never repaired, it never trains or renames.
			pt.pending = !canceled
			if canceled {
				continue
			}
			e.st.PredPredictions += 2
			e.st.PredMispredicts += scheme.Misses(lk, nt.res1, nt.res2)
			pt.res1, pt.res2 = nt.res1, nt.res2
			e.trains++
			pred.Retire(nt.res1)
			if lk.Val1 != nt.res1 {
				*r = pendingRepair{ord: ord, act: nt.res1, pending: true}
			}
			// Rename mirror: consumers read these predicted values (and
			// their at-prediction confidence) until the compare
			// resolves.
			if ev.P1 != uint8(isa.P0) {
				e.predPred[ev.P1] = lk.Val1
				e.predConf[ev.P1] = lk.Conf1
				e.prodStep[ev.P1] = nt.step
			}
			if ev.P2 != uint8(isa.P0) {
				e.predPred[ev.P2] = lk.Val2
				e.predConf[ev.P2] = lk.Conf2
				e.prodStep[ev.P2] = nt.step
			}
		case trace.EvCondBr:
			e.st.CondBranches++
			early := resolved(&e.prodStep, ev.QP, notes[i].step)
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
			if conv.missed(i) {
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
		slot := int(e.itabSlot[ev.PC])
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

// drainWindows models a recovery flush: every pending training is
// applied, oldest first, and every pending repair made.
func (e *schemeEngine) drainWindows() {
	for t := e.trains - min(e.trains-e.drained, trainWindow); t < e.trains; t++ {
		if pt := &e.trainQ[t%trainWindow]; pt.pending {
			e.pred.Train(&pt.lk, pt.res1, pt.res2)
			pt.pending = false
		}
	}
	e.drained = e.trains
	for i := range e.repairs {
		if r := &e.repairs[i]; r.pending {
			e.pred.Resolve(r.ord, r.act)
			r.pending = false
		}
	}
}
