// Package user exercises the lookup sites against the mock
// registries.
package user

import (
	"bench"
	"config"
	"obs"
	"sim"
)

func lookups() {
	sim.ResolveScheme("conventional")
	sim.ResolveScheme("conventionial") // want `"conventionial" is not a registered scheme`
	sim.WithSchemes("conventional", "predpred")
	sim.WithSchemes("peppa2") // want `"peppa2" is not a registered scheme`
	sim.ResolveWorkload("all")
	sim.ResolveWorkload("int12") // want `"int12" is not a registered workload`
	sim.WithAxis("pvt.entries", 256, 1024)
	sim.WithAxis("conf.bits", 2)
	sim.WithAxis("pvt.entires", 256) // want `"pvt.entires" is not a registered knob`
	config.Set(nil, "conf.bits", "3")
	config.Set(nil, "conf.bit", "3") // want `"conf.bit" is not a registered knob`
	bench.Find("gzip")
	bench.Find("gzp") // want `"gzp" is not a registered benchmark`
	_ = sim.BuildBenchmark("gzip")
	_ = sim.BuildBenchmark("parsr") // want `"parsr" is not a registered benchmark`
	_ = sim.SuiteSpecs("all", "gzip", "specs/custom.json")
	_ = sim.SuiteSpecs("nope") // want `"nope" is not a registered workload or benchmark`
	_ = sim.SuiteSpecs("twolf", "swim")

	// Names flowing through variables are out of scope: runtime checks
	// own those.
	name := "whatever"
	sim.ResolveScheme(name)
}

// metricSites exercises the metric name-space: Counter/Histogram
// calls register, snapshot Value lookups must resolve.
func metricSites() {
	r := obs.Default()
	r.Counter("runs.completed")
	r.Histogram("span.engine.ns")

	var s obs.Snapshot
	s.CounterValue("runs.completed")
	s.CounterValue("runs.compelted") // want `"runs.compelted" is not a registered metric`
	s.HistogramValue("span.engine.ns")
	s.HistogramValue("span.engin.ns") // want `"span.engin.ns" is not a registered metric`

	// Computed names are out of scope, same as the other registries.
	name := "span." + "decode" + ".ns"
	s.HistogramValue(name)
}
