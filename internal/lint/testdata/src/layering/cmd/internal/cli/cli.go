// Package cli stands in for a front end shared by the commands: it
// lives under cmd/, so it may import the façade but not the engine.
package cli

import (
	"sim"

	"internal/core" // want `cmd/ must reach the simulator through the sim façade`
)

// Run drives the façade, and the engine behind its back.
func Run() int { return sim.Run() + core.Run() }
