package sim

// schemes is the fixed scheme table.
var schemes = []SchemeSpec{
	{Name: "conventional", Doc: "baseline"},
	{Name: "predpred", Doc: "predicate predictor"},
}

// workloadPresets is the fixed preset table.
var workloadPresets = []WorkloadSpec{
	{Name: "all", Doc: "everything"},
}
