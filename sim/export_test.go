package sim

import (
	"runtime"
	"testing"
	"time"
)

// Test-only helpers, shared by the package's internal and external
// tests.

// EmitAll feeds a result slice through a sink and closes it; every
// production caller streams through a sink as results arrive instead.
func EmitAll(s Sink, rs []Result) error {
	for _, r := range rs {
		if err := s.Emit(r); err != nil {
			return err
		}
	}
	return s.Close()
}

// IsSpecFile exposes the suite lookup's spec-file test to the preset
// table check.
var IsSpecFile = isSpecFile

// WaitGoroutines fails t unless the process's goroutine count falls
// back to before (taken ahead of Start) within a second: a cancelled
// run must not leave its job feeder or a worker behind once Wait has
// returned.
func WaitGoroutines(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running after Wait, %d before Start:\n%s", n, before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// PrepareEntries runs the one input chain, SuiteSpecs then
// PrepareSpecs, failing t on either error.
func PrepareEntries(t testing.TB, profileSteps uint64, entries ...string) *Workload {
	t.Helper()
	specs, err := SuiteSpecs(entries...)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := PrepareSpecs(specs, profileSteps)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}
