package stats

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/trace"
)

// TestCalibrate is a development aid, run explicitly with
// PREDSIM_CALIBRATE=1; it prints pipeline vs trace-replay statistics
// side by side for threshold calibration.
func TestCalibrate(t *testing.T) {
	if os.Getenv("PREDSIM_CALIBRATE") == "" {
		t.Skip("set PREDSIM_CALIBRATE=1 to run")
	}
	const commits = 120000
	names := []string{"gzip", "vpr", "twolf", "vortex", "swim", "mesa"}
	var specs []bench.Spec
	for _, n := range names {
		s, err := bench.Find(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	progs := buildBoth(t, specs, 150000)
	for _, conv := range []bool{false, true} {
		for _, pg := range progs {
			p := pg.Plain
			if conv {
				p = pg.Converted
			}
			tr, err := trace.Record(context.Background(), p, commits+64)
			if err != nil {
				t.Fatal(err)
			}
			for _, sch := range []config.Scheme{config.SchemeConventional, config.SchemePredicate, config.SchemePEPPA} {
				cfg := config.Default().WithScheme(sch)
				pst, err := Simulate(cfg, p, commits)
				if err != nil {
					t.Fatal(err)
				}
				tst, err := Replay(cfg, p, tr, commits)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Printf("%-8s conv=%-5v %-12s | condbr %6d/%6d | mis %5d/%5d (%.2f%%/%.2f%%) | early %6d/%6d | predn %6d/%6d | predmis %5d/%5d | shadow %5d/%5d\n",
					pg.Spec.Name, conv, sch,
					pst.CondBranches, tst.CondBranches,
					pst.BranchMispred, tst.BranchMispred,
					100*pst.MispredictRate(), 100*tst.MispredictRate(),
					pst.EarlyResolved, tst.EarlyResolved,
					pst.PredPredictions, tst.PredPredictions,
					pst.PredMispredicts, tst.PredMispredicts,
					pst.ShadowMispred, tst.ShadowMispred)
			}
		}
	}
}
