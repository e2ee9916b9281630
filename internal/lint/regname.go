package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Regname checks registry lookups against registrations: a string
// literal passed to a scheme, workload, knob or benchmark lookup must
// name something actually registered somewhere in the build. The
// registries resolve names at run time, so a typo in
// WithAxis("pvt.entires", ...) is otherwise discovered two hours into
// a sweep instead of in CI. The analyzer needs every registration site
// at once, so it is module-level. Test files are out of scope on both
// sides: tests pass unregistered names on purpose to exercise the
// lookup errors, and a test fixture registers nothing in the build.
var Regname = &Analyzer{
	Name:   "regname",
	Doc:    "string literals in registry lookups must name something registered in the build",
	Module: true,
	Run:    runRegname,
}

// registry name-spaces.
const (
	nsScheme   = "scheme"
	nsWorkload = "workload"
	nsKnob     = "knob"
	nsBench    = "benchmark"
	nsMetric   = "metric"
)

func runRegname(pass *Pass) {
	reg := map[string]map[string]bool{
		nsScheme:   {},
		nsWorkload: {},
		nsKnob:     {},
		nsBench:    {},
		nsMetric:   {},
	}
	for _, p := range pass.All {
		collectRegistrations(pass, p, reg)
	}
	for _, p := range pass.All {
		checkLookups(pass, p, reg)
	}
}

// collectRegistrations harvests registered names from one package:
// SchemeSpec/WorkloadSpec/Mutator composite literals with a literal
// Name field (the fixed scheme, preset and knob tables), the metric
// names of obs Counter/Histogram calls, and the benchmark names born
// inside bench.Suite (first string argument of its spec-builder
// calls).
func collectRegistrations(pass *Pass, p *Package, reg map[string]map[string]bool) {
	for _, f := range p.Files {
		if pass.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CompositeLit:
				ns := ""
				switch namedTypeName(p, v) {
				case "SchemeSpec":
					ns = nsScheme
				case "WorkloadSpec":
					ns = nsWorkload
				case "Mutator":
					ns = nsKnob
				}
				if ns == "" {
					return true
				}
				if name, ok := litFieldString(v, "Name"); ok {
					reg[ns][name] = true
				}
			case *ast.CallExpr:
				fn := calleeFunc(p, v)
				if fn == nil || len(v.Args) == 0 {
					return true
				}
				switch fn.Name() {
				case "Counter", "Histogram":
					// obs.(*Registry).Counter and friends are
					// get-or-create: every literal-named call is a
					// registration the Snapshot lookups resolve against.
					if fnPackage(fn) == "obs" {
						if s, ok := stringLit(v.Args[0]); ok {
							reg[nsMetric][s] = true
						}
					}
				}
			case *ast.FuncDecl:
				if v.Name.Name == "Suite" && p.Types != nil && p.Types.Name() == "bench" && v.Body != nil {
					ast.Inspect(v.Body, func(m ast.Node) bool {
						call, ok := m.(*ast.CallExpr)
						if !ok || len(call.Args) == 0 {
							return true
						}
						if s, ok := stringLit(call.Args[0]); ok {
							reg[nsBench][s] = true
						}
						return true
					})
					return false
				}
			}
			return true
		})
	}
}

// checkLookups verifies every literal lookup argument in one package
// against the collected registrations.
func checkLookups(pass *Pass, p *Package, reg map[string]map[string]bool) {
	for _, f := range p.Files {
		if pass.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkLookupCall(pass, p, call, reg)
			}
			return true
		})
	}
}

func checkLookupCall(pass *Pass, p *Package, call *ast.CallExpr, reg map[string]map[string]bool) {
	fn := calleeFunc(p, call)
	if fn == nil {
		return
	}
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	checkArg := func(i int, ns string) {
		if i >= len(call.Args) {
			return
		}
		if s, ok := stringLit(call.Args[i]); ok && !reg[ns][s] {
			reportUnknown(pass, p, call.Args[i].Pos(), ns, s, reg)
		}
	}
	checkAll := func(from int, ns string) {
		for i := from; i < len(call.Args); i++ {
			s, ok := stringLit(call.Args[i])
			if !ok || reg[ns][s] {
				continue
			}
			reportUnknown(pass, p, call.Args[i].Pos(), ns, s, reg)
		}
	}
	switch fn.Name() {
	case "ResolveScheme":
		checkArg(0, nsScheme)
	case "WithSchemes":
		checkAll(0, nsScheme)
	case "ResolveWorkload":
		checkArg(0, nsWorkload)
	case "WithAxis", "ResolveMutator":
		checkArg(0, nsKnob)
	case "Set":
		// config.Set(cfg, knob, value); the bare name is common, so
		// require the config package.
		if pkgName == "config" {
			checkArg(1, nsKnob)
		}
	case "Find":
		if pkgName == "bench" {
			checkArg(0, nsBench)
		}
	case "BuildBenchmark":
		if pkgName == "sim" {
			checkArg(0, nsBench)
		}
	case "CounterValue", "HistogramValue":
		// Snapshot lookups miss silently (zero value, ok=false) on a
		// typo; resolve them against the Counter/Histogram
		// registrations instead.
		if pkgName == "obs" {
			checkArg(0, nsMetric)
		}
	case "SuiteSpecs":
		// Entries resolve against workloads first, then benchmarks;
		// path-like entries are workload spec files on disk.
		for _, a := range call.Args {
			s, ok := stringLit(a)
			if !ok || looksLikeSpecFile(s) {
				continue
			}
			if reg[nsWorkload][s] || reg[nsBench][s] {
				continue
			}
			reportUnknown(pass, p, a.Pos(), "workload or benchmark", s, reg)
		}
	}
}

func reportUnknown(pass *Pass, p *Package, pos token.Pos, ns, name string, reg map[string]map[string]bool) {
	known := knownNames(ns, reg)
	msg := "%q is not a registered %s in this build"
	if known != "" {
		pass.Reportf(pos, msg+" (known: %s)", name, ns, known)
		return
	}
	pass.Reportf(pos, msg, name, ns)
}

// knownNames renders the valid names of a name-space (or the union for
// the combined workload/benchmark space), capped so messages stay
// readable.
func knownNames(ns string, reg map[string]map[string]bool) string {
	var sets []map[string]bool
	switch ns {
	case nsScheme, nsWorkload, nsKnob, nsBench, nsMetric:
		sets = append(sets, reg[ns])
	default:
		sets = append(sets, reg[nsWorkload], reg[nsBench])
	}
	var names []string
	for _, set := range sets {
		for n := range set {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	const maxShown = 8
	if len(names) > maxShown {
		names = append(names[:maxShown:maxShown], "...")
	}
	return strings.Join(names, ", ")
}

// looksLikeSpecFile mirrors the workload loader's file detection:
// entries with path separators or a file extension are loaded from
// disk, not resolved by name.
func looksLikeSpecFile(s string) bool {
	return strings.ContainsAny(s, `/\`) || filepath.Ext(s) != ""
}

// namedTypeName returns the name of a composite literal's named type
// ("" when the literal's type is unnamed or unknown).
func namedTypeName(p *Package, lit *ast.CompositeLit) string {
	t := p.Info.TypeOf(lit)
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// litFieldString extracts field's value from a keyed composite literal
// when it is a string literal.
func litFieldString(lit *ast.CompositeLit, field string) (string, bool) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != field {
			continue
		}
		return stringLit(kv.Value)
	}
	return "", false
}

// stringLit unwraps a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// fnPackage returns the name of the package a function belongs to
// ("" for builtins).
func fnPackage(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// calleeFunc resolves a call's callee to its function object
// (functions and methods alike; nil for builtins, conversions and
// indirect calls).
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}
