package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// calibrationRef is one calibrate run's time on the two-core Intel Xeon
// virtual machine the benchmark was sized on. End-to-end times are
// reported at that reference speed.
const calibrationRef = 12500 * time.Microsecond

// calibrate times runs of a fixed kernel that shares no code with the
// simulator — sorting, map inserts and hashing on two goroutines, like
// the workloads' two workers — for at least d and at least three runs,
// and returns each run's milliseconds.
//
// On a shared virtual machine the host's speed shifts by 10-50% for
// minutes at a time and by ~25% from one tenth of a second to the next.
// The parent runs the kernel between invocations, never beside one, and
// scales a run's times by the kernel's median over the run: a change to
// the simulator moves the work and not the kernel, so it shows in full.
// Over twenty runs per workload the kernel's median and the unscaled
// wall time correlated at 0.93-0.97. A kernel of random table updates
// and byte-stream decoding over 8 MB tracked the workloads worse.
func calibrate(d time.Duration) []float64 {
	var out []float64
	for start := time.Now(); len(out) < 3 || time.Since(start) < d; {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := range parallelism {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g + 1)))
				a := make([]int, 1<<16)
				for i := range a {
					a[i] = rng.Int()
				}
				sort.Ints(a)
				m := make(map[int]int)
				for i := 0; i < len(a); i += 2 {
					m[a[i]] = i
				}
				h := sha256.New()
				buf := make([]byte, 1<<20)
				h.Write(buf)
				h.Write(buf)
				kernelSink.Add(uint64(len(m)) + uint64(h.Sum(nil)[0]))
			}()
		}
		wg.Wait()
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out
}

// kernelSink keeps the kernel's results live so the compiler cannot
// drop the work.
var kernelSink atomic.Uint64
