package config

import (
	"testing"

	"repro/internal/core"
	"repro/internal/peppa"
	"repro/internal/predictor"
)

// FuzzSet drives Set with one knob (chosen by index; one index past the
// registry names no knob) and an arbitrary value, starting from the
// default configuration. Set must not panic, and a rejected value must
// leave the Config as it was: a knob never writes part of a value. When
// the result validates, the second-level predictors it sizes must
// construct and index a site without panicking: Validate is the only
// gate between a knob value and the tables built from it.
func FuzzSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, knob uint8, value string) {
		name := "no.such.knob"
		if k := int(knob) % (len(mutators) + 1); k < len(mutators) {
			name = mutators[k].Name
		}
		c := Default()
		if err := Set(&c, name, value); err != nil {
			if c != Default() {
				t.Errorf("%s=%q: rejected (%v), but the Config changed", name, value, err)
			}
			return
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
