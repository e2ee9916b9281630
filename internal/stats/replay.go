package stats

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/peppa"
	"repro/internal/pipeline"
	"repro/internal/predictor"
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
//
//simlint:hotpath
func (f *frontend) resolved(p uint8) bool {
	last := f.prodStep[p]
	return last == 0 || f.step-last >= earlyResolveDist
}

// annotate computes one event's note and advances the shared
// architectural state. It must be called in stream order, before any
// engine replays the event.
//
//simlint:hotpath
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

// schemeEngine is the per-scheme half of the trace-driven predictor
// engine: one predictor organization replayed in commit order with
// immediate training, touching none of the out-of-order machinery. The
// scheme-independent state lives in the frontend; what remains here is
// the second-level predictor, the PPRF prediction mirror, the
// delayed-training queue, the speculative-GHR ring and the shadow
// predictor — everything whose evolution depends on the organization
// under test. See DESIGN.md ("Execution modes") for the fidelity
// contract: commit-order predictor state evolution is exact (wrong-path
// speculation is invisible to training, and speculative history pushes
// resolve to committed outcomes), while effects that depend on
// in-flight overlap — training delay between fetch and commit,
// early-resolution timing — are modeled, not simulated.
type schemeEngine struct {
	cfg config.Config

	// PPRF prediction mirror (predicate scheme): the predicted value a
	// speculative consumer would read for each architectural predicate
	// and the prediction's confidence.
	predPred [isa.NumPred]bool
	predConf [isa.NumPred]bool
	// Cancellation-aware renaming positions (predicate scheme): like
	// the frontend's table, but a rename-canceled compare does not
	// rename, so selective predication needs its own copy.
	prodStep [isa.NumPred]uint64

	// Scheme state (one second-level active, as in the pipeline).
	twolevel *predictor.TwoLevel
	pep      *peppa.Predictor
	pp       *core.Predictor
	pGHR     predictor.History // speculative-with-repair history mirror
	retired  predictor.History // commit-order history (perfect-GHR idealization)

	shadow    *predictor.TwoLevel // Figure 6b shadow (predicate scheme)
	shadowGHR predictor.History

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
}

func newSchemeEngine(cfg config.Config) (*schemeEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &schemeEngine{
		cfg:  cfg,
		ras:  predictor.NewRAS(cfg.RASEntries),
		itab: predictor.NewIndirectTable(10),
	}
	e.pGHR.N = cfg.L2PredGHRBits
	e.retired.N = cfg.L2PredGHRBits
	e.predPred[isa.P0] = true
	switch cfg.Scheme {
	case config.SchemeConventional:
		e.twolevel = predictor.NewTwoLevel(cfg.L2PredBytes, cfg.L2PredGHRBits, cfg.L2PredLHRBits, cfg.L2PredLHTBits)
		e.twolevel.SetIdeal(cfg.IdealNoAlias)
	case config.SchemePEPPA:
		e.pep = peppa.New(peppa.DefaultConfig())
	case config.SchemePredicate:
		e.pp = core.New(core.Config{
			SizeBytes: cfg.L2PredBytes,
			GHRBits:   cfg.L2PredGHRBits,
			LHRBits:   cfg.L2PredLHRBits,
			LHTBits:   cfg.L2PredLHTBits,
			ConfBits:  cfg.ConfBits,
			Ideal:     cfg.IdealNoAlias,
			SplitPVT:  cfg.SplitPVT,
		})
		e.shadow = predictor.NewTwoLevel(cfg.L2PredBytes, cfg.L2PredGHRBits, cfg.L2PredLHRBits, cfg.L2PredLHTBits)
		e.shadowGHR.N = cfg.L2PredGHRBits
	default:
		return nil, fmt.Errorf("stats: unknown scheme %v", cfg.Scheme)
	}
	return e, nil
}

// Replay runs a recorded trace through the configured predictor
// organization for a commit budget (0 = the whole trace).
func Replay(cfg config.Config, tr *trace.Trace, commits uint64) (pipeline.Stats, error) {
	return ReplayContext(context.Background(), cfg, tr, commits)
}

// ReplayContext is Replay under a context: cancellation is checked
// every decoded batch, so even a full-suite replay stops within
// milliseconds of a cancel.
func ReplayContext(ctx context.Context, cfg config.Config, tr *trace.Trace, commits uint64) (pipeline.Stats, error) {
	sts, err := ReplayAll(ctx, []config.Config{cfg}, tr, commits)
	if len(sts) != 1 {
		return pipeline.Stats{}, err
	}
	return sts[0], err
}

// ReplayAll replays one recorded trace through N predictor
// organizations in a single pass: the event stream is decoded once, the
// scheme-independent frontend is computed once, and every configuration
// replays each decoded batch in lockstep. The returned slice is
// parallel to cfgs, and each entry is bit-identical to an independent
// Replay of that configuration. On cancellation the partial statistics
// accumulated so far are returned alongside the context error.
func ReplayAll(ctx context.Context, cfgs []config.Config, tr *trace.Trace, commits uint64) ([]pipeline.Stats, error) {
	var s scratch
	return s.replayAll(ctx, cfgs, tr, nil, commits)
}

// ReplayAllArtifact is ReplayAll fed from a materialized frontend
// artifact: the annotate pass is skipped and each batch's notes are
// decoded from the artifact's stream instead. Statistics are
// bit-identical to ReplayAll over the same trace and budget. Unlike
// the Session path (which silently falls back to the live frontend
// when an artifact cannot cover the budget), this strict form requires
// the artifact and surfaces ErrArtifactMismatch / ErrArtifactDesync.
func ReplayAllArtifact(ctx context.Context, cfgs []config.Config, tr *trace.Trace, art *Artifact, commits uint64) ([]pipeline.Stats, error) {
	if art == nil {
		return nil, fmt.Errorf("stats: nil frontend artifact")
	}
	if art.ProgHash != tr.ProgHash {
		return nil, fmt.Errorf("%w: artifact program hash %016x, trace %016x", ErrArtifactMismatch, art.ProgHash, tr.ProgHash)
	}
	var s scratch
	return s.replayAll(ctx, cfgs, tr, art, commits)
}

// scratch holds the reusable decode buffers of a single-pass replay —
// the unit of reuse behind Session, where one trace is replayed for
// many configurations without re-allocating the batch.
type scratch struct {
	evs   []trace.Event
	notes []note
}

func (s *scratch) replayAll(ctx context.Context, cfgs []config.Config, tr *trace.Trace, art *Artifact, commits uint64) ([]pipeline.Stats, error) {
	return s.replay(ctx, cfgs, tr, art, commits, nil, nil)
}

// replay is the shared body behind replayAll and replayAllTimed. With
// tm/now nil the timed branches are dead and replay is exactly the
// untimed loop; with both set, phase durations accumulate into tm once
// per batch (the clock reads sit between phases, so the statistics are
// bit-identical either way). A non-nil art feeds each batch's notes
// from the artifact's stream instead of the live frontend.
func (s *scratch) replay(ctx context.Context, cfgs []config.Config, tr *trace.Trace, art *Artifact, commits uint64, tm *Timings, now func() int64) ([]pipeline.Stats, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("stats: replay needs at least one configuration")
	}
	engines := make([]*schemeEngine, len(cfgs))
	for i, cfg := range cfgs {
		e, err := newSchemeEngine(cfg)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	if s.evs == nil {
		s.evs = make([]trace.Event, batchEvents)
		s.notes = make([]note, batchEvents)
	}
	err := s.run(ctx, engines, tr, art, commits, tm, now)
	sts := make([]pipeline.Stats, len(engines))
	for i, e := range engines {
		sts[i] = e.st
	}
	return sts, err
}

// run drives the shared cursor: decode a batch, annotate it through the
// frontend (budget- and marker-aware, exactly as the per-scheme engine
// looped) — or, artifact-fed, decode the batch's notes from the
// materialized stream — then fan the admitted events to every engine.
func (s *scratch) run(ctx context.Context, engines []*schemeEngine, tr *trace.Trace, art *Artifact, commits uint64, tm *Timings, now func() int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	timed := tm != nil && now != nil
	var fe frontend
	fe.predVal[isa.P0] = true
	fe.prevVal[isa.P0] = true
	cur := tr.EventCursor()
	var acur *ArtifactCursor
	if art != nil {
		acur = art.Cursor()
	}
	var committed uint64
	var lastStep uint64 // step of the batch's last admitted event (artifact mode)
	halted := false
	done := false
	var t0 int64
	for !done {
		if timed {
			t0 = now()
		}
		nDec := cur.NextBatch(s.evs)
		if nDec == 0 {
			break
		}
		if timed {
			t1 := now()
			tm.DecodeNS += t1 - t0
			t0 = t1
		}
		// Admit events up to the commit budget, compacting markers (and
		// the halt record, which no engine acts on) out of the batch.
		n := 0
		for i := 0; i < nDec; i++ {
			ev := &s.evs[i]
			committed += ev.Gap
			if commits > 0 && committed >= commits {
				committed = commits
				done = true
				break
			}
			if ev.Kind != trace.EvMarker {
				committed++
				fe.step = committed
				if ev.Kind == trace.EvHalt {
					halted = true
					done = true
					break
				}
				if n != i {
					s.evs[n] = *ev
				}
				if acur == nil {
					fe.annotate(&s.evs[n], &s.notes[n])
				} else {
					lastStep = committed
				}
				n++
			}
			if commits > 0 && committed >= commits {
				done = true
				break
			}
		}
		// Artifact-fed: the batch's notes come from the materialized
		// stream instead of the annotate pass above. The count and the
		// final step must line up exactly with the admitted events —
		// anything else is an artifact built from a different trace or
		// budget that slipped past the coverage gates.
		if acur != nil && n > 0 {
			if err := fillNotes(acur, s.notes[:n], lastStep); err != nil {
				return err
			}
		}
		if timed {
			t1 := now()
			tm.FrontendNS += t1 - t0
			t0 = t1
			tm.Batches++
		}
		for k, e := range engines {
			e.applyBatch(s.evs[:n], s.notes[:n])
			if timed {
				t1 := now()
				tm.EngineNS[k] += t1 - t0
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
	for _, e := range engines {
		e.st.Committed = committed
		e.st.HaltSeen = halted
	}
	return nil
}

// fillNotes decodes one admitted batch's notes from the artifact
// stream into buf, verifying the note count and the final step against
// the admission loop's view (lastStep) — the desync guard.
func fillNotes(acur *ArtifactCursor, buf []note, lastStep uint64) error {
	if m := acur.NextBatch(buf); m != len(buf) {
		if err := acur.Err(); err != nil {
			return err
		}
		return fmt.Errorf("%w: note stream ended after %d of %d batch notes", ErrArtifactDesync, m, len(buf))
	}
	if got := buf[len(buf)-1].step; got != lastStep {
		return fmt.Errorf("%w: batch ends at note step %d, trace step %d", ErrArtifactDesync, got, lastStep)
	}
	return nil
}

// applyBatch replays one annotated batch through the engine's
// configured organization. The per-scheme loops are split so each
// engine's hot path stays monomorphic over a whole batch.
//
//simlint:hotpath
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

//simlint:hotpath
func (e *schemeEngine) batchConventional(evs []trace.Event) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case trace.EvCompare:
			e.st.Compares++
		case trace.EvCondBr:
			// Speculative and retired histories coincide in commit order
			// (each committed branch contributes its committed outcome),
			// so the perfect-GHR idealization is the identity here.
			e.st.CondBranches++
			lk := e.twolevel.Predict(pipeline.InstAddr(ev.PC), e.pGHR.Snapshot())
			if lk.Taken != ev.Taken {
				e.st.BranchMispred++
			}
			e.twolevel.Train(lk, ev.Taken)
			e.pGHR.Push(ev.Taken)
			e.retired.Push(ev.Taken)
		default:
			e.target(ev)
		}
	}
}

//simlint:hotpath
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
			lk := e.pep.Predict(pipeline.InstAddr(ev.PC), notes[i].sel)
			if lk.Taken != ev.Taken {
				e.st.BranchMispred++
			}
			e.pep.Update(lk, ev.Taken)
		default:
			e.target(ev)
		}
	}
}

//simlint:hotpath
func (e *schemeEngine) batchPredicate(evs []trace.Event, notes []note) {
	selective := e.cfg.Predication == config.PredicationSelective
	perfect := e.cfg.IdealPerfectGHR
	repair := !e.cfg.DisableGHRRepair
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
			canceled := selective && ev.Guarded && !ev.QPTrue && !ev.Unc && usable

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
			lk := e.pp.Predict(pipeline.InstAddr(ev.PC), ghr)

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
			// this replication is exact.
			slk := e.shadow.Predict(pipeline.InstAddr(ev.PC), e.shadowGHR.Snapshot())
			e.st.ShadowCondBranches++
			if slk.Taken != ev.Taken {
				e.st.ShadowMispred++
				if early {
					e.st.EarlyResolvedHit++
				}
			}
			e.shadow.Train(slk, ev.Taken)
			e.shadowGHR.Push(ev.Taken)
		default:
			e.target(ev)
		}
	}
}

// target replays one target-predicted event (call/return/indirect)
// against the engine's RAS and last-target table.
//
//simlint:hotpath
func (e *schemeEngine) target(ev *trace.Event) {
	switch ev.Kind {
	case trace.EvCall:
		e.ras.Push(ev.PC + 1)
	case trace.EvRet:
		if e.ras.Pop() != ev.Target {
			e.st.TargetMispred++
		}
	case trace.EvBrInd:
		addr := pipeline.InstAddr(ev.PC)
		predNext := e.itab.Predict(addr)
		actualNext := ev.PC + 1
		if ev.Taken {
			actualNext = ev.Target
		}
		if predNext != actualNext {
			e.st.TargetMispred++
		}
		e.itab.Update(addr, ev.Target)
	}
}

// resolvedAt is the frontend's resolution model over the engine's own
// cancellation-aware renaming positions (predicate scheme).
//
//simlint:hotpath
func (e *schemeEngine) resolvedAt(p uint8, step uint64) bool {
	last := e.prodStep[p]
	return last == 0 || step-last >= earlyResolveDist
}

//simlint:hotpath
func (e *schemeEngine) pushTraining(p pendingTrain) {
	i := e.trainHead + e.trainLen
	if i >= trainWindow {
		i -= trainWindow
	}
	e.trainQ[i] = p
	e.trainLen++
}

// popTraining applies the oldest deferred training.
//
//simlint:hotpath
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
//
//simlint:hotpath
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

//simlint:hotpath
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
//
//simlint:hotpath
func (e *schemeEngine) specGHR() uint64 {
	v := e.pGHR.Snapshot()<<uint(e.ringLen) | e.ringBits
	if n := e.pGHR.N; n < 64 {
		v &= uint64(1)<<n - 1
	}
	return v
}

// drainWindows models a recovery flush: every pending training is
// applied and every speculative history bit repaired.
//
//simlint:hotpath
func (e *schemeEngine) drainWindows() {
	for e.trainLen > 0 {
		e.popTraining()
	}
	for e.ringLen > 0 {
		e.evictSpecBit()
	}
}
