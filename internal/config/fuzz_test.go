package config

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/peppa"
	"repro/internal/predictor"
)

// FuzzSet drives Set with two (knob, value) pairs in sequence, starting
// from the default configuration, so it reaches the combinations sweep
// axes build (a budget set under one history width, then the width
// changed). Each knob is chosen by index; one index past the registry
// names no knob. Set must not panic, and a rejected value must leave
// the Config as it was before that Set: a knob never writes part of a
// value. When the result validates, the second-level predictors it
// sizes must construct and index a site without panicking: Validate is
// the only gate between knob values and the tables built from them.
//
// A seed file holds four values: knob, value, knob, value. A seed for
// one knob names no knob in its second pair: index len(mutators), 13
// today, with value "", which every knob rejects as well.
func FuzzSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, knob1 uint8, value1 string, knob2 uint8, value2 string) {
		c := Default()
		for _, kv := range [...]struct {
			knob  uint8
			value string
		}{{knob1, value1}, {knob2, value2}} {
			name := "no.such.knob"
			if k := int(kv.knob) % (len(mutators) + 1); k < len(mutators) {
				name = mutators[k].Name
			}
			before := c
			if err := Set(&c, name, kv.value); err != nil && c != before {
				t.Errorf("%s=%q: rejected (%v), but the Config changed", name, kv.value, err)
			}
		}
		if c.Validate() != nil {
			return
		}
		tl := predictor.NewTwoLevel(c.L2PredBytes, c.L2PredGHRBits, c.L2PredLHRBits, c.L2PredLHTBits, c.IdealNoAlias)
		tl.Site(0x4000_0000)
		pp := core.New(core.Config{
			SizeBytes: c.L2PredBytes,
			GHRBits:   c.L2PredGHRBits,
			LHRBits:   c.L2PredLHRBits,
			LHTBits:   c.L2PredLHTBits,
			ConfBits:  c.ConfBits,
			Ideal:     c.IdealNoAlias,
			SplitPVT:  c.SplitPVT,
		})
		pp.Site(0x4000_0000)
		peppa.New(peppa.DefaultConfig()).Site(0x4000_0000)
	})
}

// TestFuzzSetSeedsNameTheirKnob holds each committed FuzzSet seed's
// first knob index to the knob its file name begins with (the name with
// '.' spelled '-', or "unknown-knob" for the index past the registry).
// Knobs are chosen by index, so removing or reordering one silently
// retargets every seed after it until the seeds are renumbered.
func TestFuzzSetSeedsNameTheirKnob(t *testing.T) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSet", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzSet seeds (%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "byte(") {
			t.Fatalf("%s: the first value is not a byte", path)
		}
		lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
		if err != nil || len(lit) != 1 {
			t.Fatalf("%s: unreadable knob index %q", path, lines[1])
		}
		want := "unknown-knob"
		if k := int(lit[0]) % (len(mutators) + 1); k < len(mutators) {
			want = strings.ReplaceAll(mutators[k].Name, ".", "-")
		}
		if name := filepath.Base(path); !strings.HasPrefix(name, want) {
			t.Errorf("%s names knob index %d (%s)", name, lit[0], want)
		}
	}
}
