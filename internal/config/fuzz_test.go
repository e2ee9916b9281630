package config

import (
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
// one knob names no knob in its second pair: index len(mutators), 14
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
