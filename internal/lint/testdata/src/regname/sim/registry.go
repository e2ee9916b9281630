package sim

func init() {
	RegisterScheme(SchemeSpec{Name: "conventional", Doc: "baseline"})
	RegisterScheme(SchemeSpec{Name: "predpred", Doc: "derived", Base: "conventional"})
	RegisterScheme(SchemeSpec{Name: "broken", Doc: "typo in base", Base: "conventionl"}) // want `"conventionl" is not a registered scheme`
}

// workloadPresets is the fixed preset table.
var workloadPresets = []WorkloadSpec{
	{Name: "all", Doc: "everything"},
}
