package lint

import "strings"

// Layering enforces the module's dependency discipline: cmd/* and
// examples/* consume the simulator only through the sim façade (never
// internal/*), and internal/* never reaches back up into sim. The
// façade is the seam every scaling refactor plugs into; an internal
// import from a CLI quietly re-couples tools to implementation details
// the façade exists to hide, and an internal → sim import inverts the
// layering outright. Explicit exceptions live in .simlint.json's
// layering allowlist, each with a reason.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "cmd/* and examples/* must not import internal/*; internal/* must not import sim",
	Run:  runLayering,
}

func runLayering(pass *Pass) {
	from := pass.Pkg.Path
	for _, f := range pass.Pkg.Files {
		for _, spec := range f.Imports {
			to := strings.Trim(spec.Path.Value, `"`)
			rule := layeringViolation(from, to)
			if rule == "" {
				continue
			}
			if pass.Cfg.Layering.Allows(from, to) {
				continue
			}
			pass.Reportf(spec.Pos(), "%s (add an allowlist entry with a reason to %s if this edge is deliberate)",
				rule, ConfigFile)
		}
	}
}

// layeringViolation names the violated rule, or returns "" for a
// permitted edge. Paths are segmented so the rules hold for both the
// real module ("repro/cmd/...") and the rootless test corpus
// ("cmd/...").
func layeringViolation(from, to string) string {
	fromLayer, toLayer := topLayer(from), topLayer(to)
	switch {
	case fromLayer == "cmd" && toLayer == "internal":
		return "cmd/ must reach the simulator through the sim façade, not " + to
	case fromLayer == "examples" && toLayer == "internal":
		return "examples/ must reach the simulator through the sim façade, not " + to
	case fromLayer == "internal" && isSimPackage(to):
		return "internal/ must not import the sim façade (" + to + "): the façade sits above the engine"
	}
	return ""
}

// topLayer returns the module-root directory a package sits in: the
// first segment of the corpus's "cmd/x", the second of "repro/cmd/x".
// Only that directory counts, so cmd/internal/cli, the commands'
// shared front end, is in cmd/ and not in internal/.
func topLayer(path string) string {
	segs := strings.SplitN(path, "/", 3)
	switch segs[0] {
	case "cmd", "examples", "internal", "sim":
		return segs[0]
	}
	if len(segs) > 1 {
		return segs[1]
	}
	return ""
}

// isSimPackage matches the façade package: "sim" under the module root
// ("repro/sim" or the corpus's "sim").
func isSimPackage(path string) bool {
	segs := strings.Split(path, "/")
	if len(segs) == 0 {
		return false
	}
	last := segs[len(segs)-1]
	return last == "sim" && len(segs) <= 2
}
