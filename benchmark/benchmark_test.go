package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"syscall"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestCanonicalKeepsPrograms shows that canonicalizing a spec changes no
// program: at seed 0 every suite spec builds the same binary before and
// after, and every re-seeded spec passes the allocation check.
func TestCanonicalKeepsPrograms(t *testing.T) {
	for _, s := range bench.Suite() {
		c, err := canonical(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got, want := trace.HashProgram(bench.Build(c)), trace.HashProgram(bench.Build(s)); got != want {
			t.Errorf("%s: canonical program hash %016x, built-in %016x", s.Name, got, want)
		}
	}
	for _, seed := range []int64{1, 7} {
		specs, err := suiteSpecs(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range specs {
			if err := bench.CheckSiteAllocation(s); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestContract runs every workload in this process at a tiny budget, an
// untraced and a traced invocation each, and checks that every metric
// BENCHMARK.json names is emitted and finite, that BENCHMARK.json names
// only workloads and metrics the program defines, and that tracing
// changes no cell.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range m.EndToEnd {
		if want := endToEnd[i]; d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better || d.Bound != want.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, d, want)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range m.PerLayer {
		if want := perLayer[i]; d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, d, want)
		}
	}

	tiny := scale{benches: 2, commits: 40000}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(traced bool) *report {
				inv := &invocation{ctx: context.Background(), w: w, seed: 1, scale: tiny, traceDir: dir, traced: traced}
				rep, err := inv.run()
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range rep.Cells {
					if c.Err != "" {
						t.Errorf("cell %s: %s", c.Key, c.Err)
					}
				}
				return rep
			}
			plain := run(false)
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				t.Fatal(err)
			}
			samples := []sample{{plain, float64(ru.Maxrss) / 1024}}
			traced := run(true)
			if len(traced.Cells) != len(plain.Cells) {
				t.Fatalf("traced invocation has %d cells, untraced %d", len(traced.Cells), len(plain.Cells))
			}
			for i, c := range traced.Cells {
				if c != plain.Cells[i] {
					t.Errorf("tracing changed cell %s: %s, untraced %s", c.Key, c.Hash, plain.Cells[i].Hash)
				}
			}
			oc := newOutcome(w, samples, calibrate(0))
			for _, d := range endToEnd {
				if v, ok := oc.EndToEnd[d.Name]; !ok || math.IsNaN(v.Median) || math.IsInf(v.Median, 0) || v.Median <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive finite value", d.Name, v)
				}
			}
			layers := layerMetrics(traced, oc.Host)
			for _, d := range perLayer {
				if v, ok := layers[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v), want a finite value", d.Name, v, ok)
				}
			}
		})
	}
}
