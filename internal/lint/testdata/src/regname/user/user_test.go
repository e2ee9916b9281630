package user

import "sim"

// Test files are out of regname's scope: tests pass unregistered names
// on purpose to exercise the lookup errors, so no diagnostic here.
func lookupErrors() {
	sim.ResolveScheme("no-such-scheme")
	_ = sim.SuiteSpecs("no-such-bench")
}
