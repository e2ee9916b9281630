// Package config mocks the knob table.
package config

// Config is a placeholder target for Set.
type Config struct{}

// Mutator mirrors the knob record.
type Mutator struct {
	Name string
	Doc  string
}

// mutators is the fixed knob table.
var mutators = []Mutator{
	{Name: "conf.bits", Doc: "confidence counter width"},
	{Name: "pvt.entries", Doc: "predicate value table size"},
}

// ResolveMutator looks up a knob by name.
func ResolveMutator(name string) (Mutator, bool) {
	for _, m := range mutators {
		if m.Name == name {
			return m, true
		}
	}
	return Mutator{}, false
}

// Set applies a knob by name.
func Set(c *Config, name, value string) error { return nil }
