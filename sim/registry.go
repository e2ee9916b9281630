package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
)

// SchemeSpec names a branch-prediction organization. Built-ins cover
// the paper's three schemes; new organizations are registered on top
// of a Base scheme with a Configure mutator, so extending the
// simulator does not require editing the internal Scheme enum or any
// of its switch statements.
type SchemeSpec struct {
	// Name is the registry key, used in WithSchemes and table columns.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Base optionally names an already-registered scheme whose
	// configuration is applied first.
	Base string
	// Configure adjusts the configuration after Base (may be nil when
	// Base alone defines the scheme).
	Configure func(*Config)
}

var schemeReg = struct {
	sync.RWMutex
	specs map[string]SchemeSpec
	apply map[string]func(*Config)
}{
	specs: map[string]SchemeSpec{},
	apply: map[string]func(*Config){},
}

// RegisterScheme adds a named scheme to the registry. It fails on an
// empty or duplicate name, and on a Base that is not yet registered
// (which also rules out cycles).
func RegisterScheme(s SchemeSpec) error {
	if s.Name == "" {
		return fmt.Errorf("sim: scheme name must not be empty")
	}
	schemeReg.Lock()
	defer schemeReg.Unlock()
	if _, dup := schemeReg.specs[s.Name]; dup {
		return fmt.Errorf("sim: scheme %q already registered", s.Name)
	}
	var base func(*Config)
	if s.Base != "" {
		base = schemeReg.apply[s.Base]
		if base == nil {
			return fmt.Errorf("sim: scheme %q: base %q not registered", s.Name, s.Base)
		}
	}
	cfgFn := s.Configure
	schemeReg.specs[s.Name] = s
	schemeReg.apply[s.Name] = func(c *Config) {
		if base != nil {
			base(c)
		}
		if cfgFn != nil {
			cfgFn(c)
		}
	}
	return nil
}

// mustRegisterScheme is RegisterScheme that panics on error, for
// package-init registration.
func mustRegisterScheme(s SchemeSpec) {
	if err := RegisterScheme(s); err != nil {
		panic(err)
	}
}

// ResolveScheme looks a scheme up by name.
func ResolveScheme(name string) (SchemeSpec, bool) {
	schemeReg.RLock()
	defer schemeReg.RUnlock()
	s, ok := schemeReg.specs[name]
	return s, ok
}

// SchemeNames returns every registered scheme name, sorted.
func SchemeNames() []string {
	schemeReg.RLock()
	defer schemeReg.RUnlock()
	names := make([]string, 0, len(schemeReg.specs))
	for n := range schemeReg.specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// schemeConfig builds the run configuration for a named scheme:
// Table 1 defaults, then the scheme's (base-chained) Configure.
func schemeConfig(name string) (Config, error) {
	schemeReg.RLock()
	apply := schemeReg.apply[name]
	schemeReg.RUnlock()
	if apply == nil {
		return Config{}, fmt.Errorf("sim: unknown scheme %q (registered: %v)", name, SchemeNames())
	}
	c := config.Default()
	apply(&c)
	return c, nil
}

// The paper's three organizations, under their figure names.
func init() {
	mustRegisterScheme(SchemeSpec{
		Name: "conventional",
		Doc:  "Table 1 baseline: gshare first level + 148 KB perceptron second level",
		Configure: func(c *Config) {
			*c = c.WithScheme(config.SchemeConventional)
		},
	})
	mustRegisterScheme(SchemeSpec{
		Name: "predpred",
		Doc:  "the paper's proposal: second-level prediction from the predicate predictor via the PPRF",
		Configure: func(c *Config) {
			*c = c.WithScheme(config.SchemePredicate)
		},
	})
	mustRegisterScheme(SchemeSpec{
		Name: "peppa",
		Doc:  "August et al.'s 144 KB PEP-PA second level (the Figure 6a comparator)",
		Configure: func(c *Config) {
			*c = c.WithScheme(config.SchemePEPPA)
		},
	})
}
