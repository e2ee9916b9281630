package pipeline

import (
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/config"
	"repro/internal/program"
)

// cycleModelCommits is each cell's budget in the cycle-model
// benchmarks: past the prologue.
const cycleModelCommits = 120000

// cycleModelCell is one benchmark cell: a scheme's configuration and a
// binary.
type cycleModelCell struct {
	cfg  config.Config
	prog *program.Program
}

// cycleModelCells builds the cells of the cycle-model benchmarks: the
// six benchmarks of TestSchedulingVisitsPerCommit in the cells Fig 5
// and Fig 6a run, the plain binaries under conventional and predpred
// and the if-converted binaries under all three schemes, benchmark by
// benchmark.
func cycleModelCells(b *testing.B) []cycleModelCell {
	var cells []cycleModelCell
	for _, name := range []string{"gzip", "twolf", "swim", "mcf", "vpr", "art"} {
		plain, ifconv := suiteBinaries(b, name)
		for _, s := range allSchemes() {
			cfg := config.Default().WithScheme(s)
			if s != config.SchemePEPPA {
				cells = append(cells, cycleModelCell{cfg, plain})
			}
			cells = append(cells, cycleModelCell{cfg, ifconv})
		}
	}
	return cells
}

// BenchmarkCycleModel times the cycle model alone, in process, and
// reports ns per committed instruction for each scheme, running each
// scheme's cells one after another on a new machine each. Building,
// profiling and if-converting happen before the timer starts.
//
//	go test -run '^$' -bench 'CycleModel$' -count 10 ./internal/pipeline
func BenchmarkCycleModel(b *testing.B) {
	cells := cycleModelCells(b)
	for _, s := range allSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			var committed uint64
			for b.Loop() {
				for _, c := range cells {
					if c.cfg.Scheme != s {
						continue
					}
					pl, err := New(c.cfg, c.prog)
					if err != nil {
						b.Fatal(err)
					}
					if err := pl.Run(cycleModelCommits); err != nil {
						b.Fatal(err)
					}
					committed += pl.Stats.Committed
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/instr")
		})
	}
}

// BenchmarkCycleModelTwoWorkers runs every cell of BenchmarkCycleModel
// the way sim's worker pool does: two goroutines take cells from one
// queue, each resetting one machine of its own for every cell it takes.
// On two cores both simulate at once, so the garbage collector's share
// of the run, which one goroutine on an idle second core does not see,
// is in the figure. It reports wall-clock ns per committed instruction
// over all cells, and the process's CPU time per committed instruction
// (cpu-ns/instr: both workers and the collector, on any thread), which
// a busy host inflates less than the wall clock.
//
//	go test -run '^$' -bench CycleModelTwoWorkers -count 10 ./internal/pipeline
func BenchmarkCycleModelTwoWorkers(b *testing.B) {
	cells := cycleModelCells(b)
	var committed atomic.Uint64
	cpu0 := processCPU(b)
	for b.Loop() {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var m Pipeline
				for i := int(next.Add(1) - 1); i < len(cells); i = int(next.Add(1) - 1) {
					c := cells[i]
					if err := m.Reset(c.cfg, c.prog); err != nil {
						b.Error(err)
						return
					}
					if err := m.Run(cycleModelCommits); err != nil {
						b.Error(err)
						return
					}
					committed.Add(m.Stats.Committed)
				}
			}()
		}
		wg.Wait()
	}
	cpu := processCPU(b) - cpu0
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed.Load()), "ns/instr")
	b.ReportMetric(float64(cpu)/float64(committed.Load()), "cpu-ns/instr")
}

// processCPU returns the user and system CPU time the process has used,
// in nanoseconds.
func processCPU(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
