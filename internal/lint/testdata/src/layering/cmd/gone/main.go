// Command gone dropped its engine import but kept the suppression that
// justified it; the stale-suppression audit reports the leftover.
package main

import "sim"

/* want `stale //simlint:ignore layering` */ //simlint:ignore layering corpus: justified an engine import that is gone

func main() { _ = sim.Run() }
