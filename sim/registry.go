package sim

import (
	"fmt"
	"sort"

	"repro/internal/config"
)

// SchemeSpec names one of the paper's branch-prediction organizations.
// Variants of an organization (a split PVT, select-only predication,
// the idealized runs) are configuration mutators over its entry
// (WithConfigMutator), not schemes of their own.
type SchemeSpec struct {
	// Name is the table key, used in WithSchemes and table columns.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Configure adjusts the Table 1 defaults into this organization.
	Configure func(*Config)
}

// schemes is the fixed scheme table: the paper's three organizations,
// under their figure names. No two entries may project to the same
// stats.EngineConfig, or they would share one replay-memo entry.
var schemes = []SchemeSpec{
	{
		Name:      "conventional",
		Doc:       "Table 1 baseline: gshare first level + 148 KB perceptron second level",
		Configure: func(c *Config) { *c = c.WithScheme(config.SchemeConventional) },
	},
	{
		Name:      "predpred",
		Doc:       "the paper's proposal: second-level prediction from the predicate predictor via the PPRF",
		Configure: func(c *Config) { *c = c.WithScheme(config.SchemePredicate) },
	},
	{
		Name:      "peppa",
		Doc:       "August et al.'s 144 KB PEP-PA second level (the Figure 6a comparator)",
		Configure: func(c *Config) { *c = c.WithScheme(config.SchemePEPPA) },
	},
}

// ResolveScheme looks a scheme up by name.
func ResolveScheme(name string) (SchemeSpec, bool) {
	for _, s := range schemes {
		if s.Name == name {
			return s, true
		}
	}
	return SchemeSpec{}, false
}

// SchemeNames returns every scheme name, sorted.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// schemeConfig builds the run configuration for a named scheme:
// Table 1 defaults, then the scheme's Configure.
func schemeConfig(name string) (Config, error) {
	s, ok := ResolveScheme(name)
	if !ok {
		return Config{}, fmt.Errorf("sim: unknown scheme %q (schemes: %v)", name, SchemeNames())
	}
	c := config.Default()
	s.Configure(&c)
	return c, nil
}
