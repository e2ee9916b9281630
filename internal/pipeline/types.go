// Package pipeline implements the execution-driven, value-accurate
// out-of-order processor model of the paper's evaluation (§4.1): an
// 8-stage pipeline with the Table 1 window sizes and memory hierarchy,
// ROB-walk rename recovery, a two-level override branch predictor, and
// the three second-level schemes under study (conventional perceptron,
// PEP-PA, and the predicate predictor with its PPRF extensions and
// selective predication).
package pipeline

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/peppa"
	"repro/internal/predictor"
)

// destKind classifies an instruction's register destination.
type destKind uint8

const (
	destNone destKind = iota
	destInt
	destFP
)

// uopClass routes a micro-op to an issue queue and function unit pool.
type uopClass uint8

const (
	classInt uopClass = iota
	classFP
	classMem
	classBr
	classNone // canceled / nop / halt: never issues
)

// physReg is an integer physical register. wait heads the stack of
// consumer links waiting for its value (noLink when empty); linkNext
// threads each stack.
type physReg struct {
	val   int64
	ready bool
	wait  int32
}

// physRegF is a floating-point physical register, likewise.
type physRegF struct {
	val   float64
	ready bool
	wait  int32
}

// pprfEntry is a predicate physical register with the paper's §3.2
// extensions: the speculative (prediction) bit, a confidence bit and a
// ROB pointer to the first speculative consumer. val holds the
// predicted value until the producing compare executes and overwrites
// it with the computed value — the property that makes early-resolved
// branches free.
type pprfEntry struct {
	val      bool
	computed bool  // false while val is a prediction (speculative bit set)
	conf     bool  // prediction confidence at allocation
	wait     int32 // consumer-link stack, as in physReg
	robPtr   int64 // seq of first speculative consumer, -1 when none
}

// predDest records the renaming of one predicate destination.
type predDest struct {
	newP    int32
	oldP    int32
	arch    isa.PredReg
	rmw     bool // final value may be the old value (norm/and/or semantics)
	predVal bool // predicted final value (predicate scheme)
}

// A consumer link names one source operand of a window slot: slot*srcLinks
// plus 0–2 for the integer sources, 3–5 for the FP sources and 6–8 for
// the predicate sources.
const (
	srcLinks = 9
	noLink   = -1
)

// uop is one in-flight instruction, held in a Pipeline window slot. It
// holds no pointer, so the window is no work for the garbage collector.
// Fetch writes the header fields, copies the static record's decoded
// part and zeroes the uopFlags. Every uopState field is written before
// it is read, under a flag or a decoded predicate that says so, so
// fetch leaves the slot's old values there. Physical-register indices
// and the uop's own PC are int32: New rejects a configuration or
// program they cannot index. Branch targets stay int, because an
// indirect target is a register value.
type uop struct {
	seq  int64
	wake uint64 // cycle at which the uop is visible to rename (front-end delay)
	pc   int32  // also the index of the static record, which holds the predictor sites
	decoded
	uopFlags
	uopState
}

// uopFlags is the part of a uop that must start at zero: the flags
// that say which uopState fields and cold lookups are live, and the
// counts rename and dispatch increment.
type uopFlags struct {
	// Fetch. The scheme-exclusive lookups and the RAS snapshot live in
	// the slot's uopCold; the flags below say which of them are live.
	fetchPredTaken bool // first-level (gshare) direction
	predTaken      bool // final direction prediction used
	pushedBrGHR    bool
	_              bool // keeps the uop at 272 bytes (EXPERIMENTS.md "One scheme, two clocks")
	touchedRAS     bool
	brLkValid      bool
	pepLkValid     bool
	cmpLkValid     bool
	isCondBr       bool
	refetched      bool // refetch after this branch's own consumer-flush

	// Rename.
	dKind     destKind
	nSrcI     uint8
	nSrcF     uint8
	nSrcP     uint8
	pValid    [2]bool // pDests[i] renames a predicate destination
	selectOp  bool    // select-style micro-op: result may be the old dest value
	canceled  bool    // nullified at rename (selective predication, predicted false)
	unguarded bool    // guard dropped at rename (selective predication, predicted true)
	uncFalse  bool    // canceled unc compare: still writes false/false
	early     bool    // branch guard was computed at rename (early-resolved)
	renamed   bool

	// Execution.
	pending uint8 // sources not yet ready, while dispatched and waiting
	issued  bool
	done    bool
}

// uopState is the rest of a uop's state: each field is written before
// any read, by the stage named beside it.
type uopState struct {
	// Fetch, for branches and compares.
	brGHRSnap  uint64 // gshare GHR before this uop's push: gshare's index history and the restore point (pushedBrGHR)
	pGHRSnap   uint64 // second-level GHR before this uop's push (brLkValid or cmpLkValid)
	pushOrd    int64  // this uop's ordinal among the live second-level GHR pushes, likewise
	predTarget int    // predicted target when taken (every branch)

	// Rename.
	newPhys int32    // dKind != destNone
	oldPhys int32    // dKind != destNone, or a select micro-op
	qpPhys  int32    // physical reg of the qualifying predicate (-1 if p0)
	srcI    [3]int32 // int physical sources: 2 ISA sources + a select op's old destination
	srcF    [3]int32 // fp physical sources, likewise
	srcP    [3]int32 // predicate physical sources that must be computed: guard + 2 RMW destinations
	pDests  [2]predDest

	// Execution.
	doneCycle   uint64 // also set at rename for a uop that never issues
	resI        int64
	resF        float64
	memAddr     uint64
	stBits      uint64 // store data, as the bits memory receives
	actualTgt   int    // a register value for ret and brind: not bounded by the program
	actualTaken bool
	qpVal       bool // computed guard value
	resP        [2]bool
}

// uopCold is a window slot's scheme-exclusive fetch state: the
// second-level lookup of whichever scheme runs and the RAS snapshot of
// a call or return. Each is read only at rename, writeback, commit or a
// squash, and only while its flag in the slot's uop is set, so fetch
// never clears it and the hot uop stays small.
type uopCold struct {
	rasSnap predictor.RASSnapshot
	brLk    predictor.TwoLevelLookup
	pepLk   peppa.Lookup
	cmpLk   core.Lookup
}

// predNext is the PC fetch followed after a branch uop.
func (u *uop) predNext() int {
	if u.predTaken {
		return u.predTarget
	}
	return int(u.pc) + 1
}

// actualNext is the PC that follows an executed branch uop.
func (u *uop) actualNext() int {
	if u.actualTaken {
		return u.actualTgt
	}
	return int(u.pc) + 1
}

func (u *uop) addSrcI(p int32) { u.srcI[u.nSrcI] = p; u.nSrcI++ }
func (u *uop) addSrcF(p int32) { u.srcF[u.nSrcF] = p; u.nSrcF++ }
func (u *uop) addSrcP(p int32) { u.srcP[u.nSrcP] = p; u.nSrcP++ }

// Stats aggregates the run's observable behaviour. Branch statistics
// count committed instructions only.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64
	Squashed  uint64

	CondBranches     uint64
	BranchMispred    uint64 // committed conditional branches with wrong direction
	TargetMispred    uint64 // indirect/return target mispredictions
	EarlyResolved    uint64 // branches whose guard was computed at rename
	EarlyResolvedHit uint64 // early-resolved and the shadow conventional was wrong
	OverrideFlushes  uint64 // first/second level disagreement front-end flushes
	ExecFlushes      uint64 // branch-execute misprediction flushes
	PredFlushes      uint64 // predicate-consumer misprediction flushes

	Compares        uint64 // committed predicate-producing instructions
	PredPredictions uint64 // predicate value predictions generated (committed)
	PredMispredicts uint64 // committed compares whose used prediction was wrong
	Cancelled       uint64 // instructions cancelled at rename (predicted-false)
	Unguarded       uint64 // instructions unguarded at rename (predicted-true)
	SelectOps       uint64 // guarded instructions handled as select micro-ops

	ShadowCondBranches uint64 // committed cond branches scored by the shadow predictor
	ShadowMispred      uint64 // shadow conventional predictor mispredictions

	LoadForwards uint64
	HaltSeen     bool
}

// MispredictRate returns mispredictions per committed conditional branch.
func (s *Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.BranchMispred) / float64(s.CondBranches)
}

// Accuracy returns 1 - MispredictRate.
func (s *Stats) Accuracy() float64 { return 1 - s.MispredictRate() }

// ShadowMispredictRate returns the shadow conventional predictor's
// misprediction rate (predicate-scheme runs only).
func (s *Stats) ShadowMispredictRate() float64 {
	if s.ShadowCondBranches == 0 {
		return 0
	}
	return float64(s.ShadowMispred) / float64(s.ShadowCondBranches)
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
