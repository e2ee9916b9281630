// An external test package is type-checked after every other package,
// so it may import anything in the build, and the layering rules still
// apply to it.
package core_test

import (
	"testing"

	"internal/core"
	"sim" // want `internal/ must not import the sim façade`
)

func TestRun(t *testing.T) {
	if core.Run() != sim.Run() {
		t.Fatal("façade and engine disagree")
	}
}
