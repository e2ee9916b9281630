// Command blessed carries a layering suppression on its engine import,
// so the edge is accepted.
package main

import "internal/core" //simlint:ignore layering corpus: deliberate engine-level tool

func main() { _ = core.Run() }
