package pipeline

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/ifconvert"
	"repro/internal/program"
)

// BenchmarkCycleModel times the cycle model alone, in process, and
// reports ns per committed instruction for each scheme. It runs the six
// benchmarks of TestSchedulingVisitsPerCommit at 120k commits, past the
// prologue, in the cells Fig 5 and Fig 6a run: the plain binaries under
// conventional and predpred, and the if-converted binaries under all
// three schemes. Building, profiling and if-converting happen before
// the timer starts.
//
//	go test -run '^$' -bench CycleModel -count 10 ./internal/pipeline
func BenchmarkCycleModel(b *testing.B) {
	const commits = 120000
	progs := map[config.Scheme][]*program.Program{}
	for _, name := range []string{"gzip", "twolf", "swim", "mcf", "vpr", "art"} {
		spec, err := bench.Find(name)
		if err != nil {
			b.Fatal(err)
		}
		plain := bench.Build(spec)
		res, err := ifconvert.Convert(plain, ifconvert.DefaultOptions(ifconvert.ProfileProgram(plain, 100000)))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range allSchemes() {
			if s != config.SchemePEPPA {
				progs[s] = append(progs[s], plain)
			}
			progs[s] = append(progs[s], res.Prog)
		}
	}
	for _, s := range allSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			cfg := config.Default().WithScheme(s)
			var committed uint64
			for b.Loop() {
				for _, p := range progs[s] {
					pl, err := New(cfg, p)
					if err != nil {
						b.Fatal(err)
					}
					if err := pl.Run(commits); err != nil {
						b.Fatal(err)
					}
					committed += pl.Stats.Committed
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/instr")
		})
	}
}
