package stats

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/trace"
)

// configLeaves lists the index paths of every scalar field of
// config.Config, descending into nested structs (the CacheParams), so a
// field added anywhere in the configuration is picked up without
// editing the test.
func configLeaves(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		if f := t.Field(i); f.Type.Kind() == reflect.Struct {
			out = append(out, configLeaves(f.Type, path)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

func leafName(path []int) string {
	t := reflect.TypeOf(config.Config{})
	name := ""
	for _, i := range path {
		f := t.Field(i)
		if name != "" {
			name += "."
		}
		name += f.Name
		t = f.Type
	}
	return name
}

// perturbations returns copies of c with the field at path moved to
// each nearby value (flipped, doubled, ±1) that still passes Validate.
func perturbations(c config.Config, path []int) []config.Config {
	orig := reflect.ValueOf(c).FieldByIndex(path)
	var cands []reflect.Value
	switch orig.Kind() {
	case reflect.Bool:
		cands = append(cands, reflect.ValueOf(!orig.Bool()))
	case reflect.Int:
		v := orig.Int()
		for _, n := range []int64{2 * v, v + 1, v - 1} {
			cands = append(cands, reflect.ValueOf(n))
		}
	case reflect.Uint:
		v := orig.Uint()
		for _, n := range []uint64{2 * v, v + 1, v - 1} {
			cands = append(cands, reflect.ValueOf(n))
		}
	}
	var out []config.Config
	for _, cand := range cands {
		p := c
		f := reflect.ValueOf(&p).Elem().FieldByIndex(path)
		f.Set(cand.Convert(f.Type()))
		if p != c && p.Validate() == nil {
			out = append(out, p)
		}
	}
	return out
}

// TestEngineConfigProjection proves the replay memo's key from the code
// rather than from comments: every config.Config field (CacheParams
// subfields included) is perturbed to its nearby valid values, and wherever
// EngineConfigOf does not change, a vpr trace replay must stay
// bit-identical — for each of the three schemes. The fields that do
// change the projection must be exactly EngineConfig's own.
func TestEngineConfigProjection(t *testing.T) {
	const commits = 60000
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	pgs, err := prepareBoth([]bench.Spec{spec}, commits)
	if err != nil {
		t.Fatal(err)
	}
	// The if-converted binary carries the guarded compares selective
	// predication cancels, so every engine path is exercised.
	prog := pgs[0].Converted
	tr, err := trace.Record(context.Background(), prog, commits)
	if err != nil {
		t.Fatal(err)
	}
	leaves := configLeaves(reflect.TypeOf(config.Config{}), nil)
	want := map[string]bool{}
	et := reflect.TypeOf(EngineConfig{})
	for i := 0; i < et.NumField(); i++ {
		want[et.Field(i).Name] = true
	}
	for _, scheme := range replaySchemes {
		base := config.Default().WithScheme(scheme)
		ref, err := Replay(base, prog, tr, commits)
		if err != nil {
			t.Fatal(err)
		}
		visible := map[string]bool{}
		for _, path := range leaves {
			name := leafName(path)
			ps := perturbations(base, path)
			if len(ps) == 0 {
				t.Errorf("%v: no valid perturbation of %s", scheme, name)
			}
			for _, p := range ps {
				if EngineConfigOf(p) != EngineConfigOf(base) {
					visible[name] = true
					continue
				}
				got, err := Replay(p, prog, tr, commits)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v: %s is outside EngineConfig but changes replay:\n got: %+v\nwant: %+v", scheme, name, got, ref)
				}
			}
		}
		if !reflect.DeepEqual(visible, want) {
			t.Errorf("%v: fields moving EngineConfigOf = %v, want EngineConfig's own %v", scheme, visible, want)
		}
	}
}
