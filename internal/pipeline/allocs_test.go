package pipeline

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/scheme"
)

// codeAllocs runs f once to warm up and once measured, and returns the
// measured call's heap allocations whose stack passes through the
// module's non-test code under repro/internal/, together with every
// allocation the process made meanwhile. testing.AllocsPerRun counts
// only the second kind, so an allocation by a runtime goroutine during
// the measured call (the finalizer goroutine allocates its call frame
// the first time it runs a finalizer) failed allocation-free tests
// that allocate nothing themselves. Every allocation is profiled while
// f runs (runtime.MemProfileRate = 1); the runtime.GC in each profile
// read publishes the allocations made before it.
func codeAllocs(f func()) (code, total uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	before := allocsByStack()
	var m0, m1 runtime.MemStats
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	for stk, n := range allocsByStack() {
		if n > before[stk] && inModuleCode(stk) {
			code += uint64(n - before[stk])
		}
	}
	return code, m1.Mallocs - m0.Mallocs
}

// allocsByStack reads the heap profile's cumulative allocation counts,
// by allocating stack.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			out := make(map[[32]uintptr]int64, n)
			for _, r := range recs[:n] {
				out[r.Stack0] += r.AllocObjects
			}
			return out
		}
	}
}

// inModuleCode reports whether an allocating stack passes through a
// non-test function of a package under repro/internal/.
func inModuleCode(stk [32]uintptr) bool {
	frames := runtime.CallersFrames(stk[:])
	for {
		fr, more := frames.Next()
		if strings.HasPrefix(fr.Function, "repro/internal/") && !strings.HasSuffix(fr.File, "_test.go") {
			return true
		}
		if !more {
			return false
		}
	}
}

var (
	allocSink []int
	kindsSink []uint8
	oneInst   = &program.Program{Insts: make([]isa.Inst, 1)}
)

// TestCodeAllocsSeesModuleCode checks the counter itself: an allocation
// in the module's code counts, and one in test code does not.
func TestCodeAllocsSeesModuleCode(t *testing.T) {
	if code, total := codeAllocs(func() { kindsSink = scheme.Kinds(nil, oneInst) }); code != 1 || total < 1 {
		t.Errorf("scheme.Kinds growing a nil list: %d allocations through module code (%d in all), want 1", code, total)
	}
	if code, total := codeAllocs(func() { allocSink = make([]int, 64) }); code != 0 || total < 1 {
		t.Errorf("a test-code make: %d allocations through module code (%d in all), want 0", code, total)
	}
}
