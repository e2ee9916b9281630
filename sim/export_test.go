package sim

// Test-only helpers, shared by the package's internal and external
// tests.

// EmitAll feeds a result slice through a sink and closes it; every
// production caller streams through a sink as results arrive instead.
func EmitAll(s Sink, rs []Result) error {
	for _, r := range rs {
		if err := s.Emit(r); err != nil {
			return err
		}
	}
	return s.Close()
}

// EmitAllSweep feeds a sweep result slice through a sink and closes it.
func EmitAllSweep(s SweepSink, rs []SweepResult) error {
	for _, r := range rs {
		if err := s.Emit(r); err != nil {
			return err
		}
	}
	return s.Close()
}

// IsSpecFile exposes the suite lookup's spec-file test to the preset
// table check.
var IsSpecFile = isSpecFile
