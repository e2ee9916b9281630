package a

import (
	"math/rand"
	"testing"
)

// Test files are linted with their package: a test that draws from the
// global source is as irreproducible as the code it tests.
func TestGlobalDraw(t *testing.T) {
	if rand.Intn(3) > 2 { // want `rand.Intn draws from the process-global source`
		t.Fatal("unreachable")
	}
	r := rand.New(rand.NewSource(1))
	_ = r.Intn(3)
}
