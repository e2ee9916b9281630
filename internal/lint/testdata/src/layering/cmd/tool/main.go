// Command tool imports the façade and the commands' shared front end
// (fine) and the engine (not fine).
package main

import (
	"cmd/internal/cli"
	"sim"

	"internal/core" // want `cmd/ must reach the simulator through the sim façade`
)

func main() {
	_ = sim.Run()
	_ = cli.Run()
	_ = core.Run()
}
