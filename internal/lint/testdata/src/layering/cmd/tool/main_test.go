package main

import (
	"testing"

	"internal/core" // want `cmd/ must reach the simulator through the sim façade`
)

// A test file of a cmd/ package is held to the same import rules.
func TestRun(t *testing.T) { _ = core.Run() }
