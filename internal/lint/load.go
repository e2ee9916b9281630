package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The whole process shares one file set and one source importer: the
// importer type-checks standard-library dependencies from GOROOT
// source (the only importer that works with an empty module cache),
// which is expensive enough that every Load call should reuse its
// cache — and a shared cache forces a shared file set.
var (
	loadMu   sync.Mutex
	loadFset = token.NewFileSet()
	stdImp   types.Importer
)

// Fset returns the process-wide file set every Load resolves
// positions against.
func Fset() *token.FileSet { return loadFset }

// moduleImporter resolves module-internal imports from the packages
// loaded so far and everything else through the source importer.
type moduleImporter struct {
	loaded map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.loaded[path]; p != nil {
		return p, nil
	}
	if stdImp == nil {
		stdImp = importer.ForCompiler(loadFset, "source", nil)
	}
	return stdImp.Import(path)
}

// Load parses and type-checks every package under root, test files
// included. modPath is the module path prefix for import paths
// ("repro" for the real module); with modPath == "" the import path is
// the root-relative directory, which is how analyzer test corpora
// under testdata/src are addressed. In-package _test.go files are
// type-checked with their package (export_test.go files widen it for
// the external tests); an external foo_test package becomes its own
// Package with path "<import path>_test". Packages are returned
// sorted by path.
func Load(root, modPath string) ([]*Package, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs, xtests []*Package
	byPath := make(map[string]*Package, len(dirs))
	for _, dir := range dirs {
		p, xtest, err := parseDir(root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
			byPath[p.Path] = p
		}
		if xtest != nil {
			xtests = append(xtests, xtest)
		}
	}
	ordered, err := topoSort(pkgs, byPath)
	if err != nil {
		return nil, err
	}
	// Nothing imports an external test package, so checking them after
	// every other package satisfies all of their imports.
	imp := &moduleImporter{loaded: make(map[string]*types.Package, len(ordered))}
	for _, p := range append(ordered, xtests...) {
		if err := typeCheck(p, imp); err != nil {
			return nil, err
		}
		imp.loaded[p.Path] = p.Types
	}
	pkgs = append(pkgs, xtests...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadModule locates the module root at or above dir (by go.mod) and
// loads it, returning the root as well.
func LoadModule(dir string) (string, []*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return "", nil, err
	}
	pkgs, err := Load(root, modPath)
	return root, pkgs, err
}

// findModule walks up from dir to the nearest go.mod and returns the
// directory and declared module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// packageDirs returns every directory under root that may hold a
// package, skipping VCS metadata, testdata trees and hidden or
// underscore-prefixed directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses one directory's Go files into its package (test
// files of the same package included) and its external test package,
// either of which is nil when the directory holds none of its files.
func parseDir(root, modPath, dir string) (*Package, *Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	path := importPath(root, modPath, dir)
	p := &Package{Dir: dir, Path: path}
	xtest := &Package{Dir: dir, Path: path + "_test"}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(loadFset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		if ignoredByBuildTag(f) {
			continue
		}
		dst := p
		if strings.HasSuffix(name, "_test.go") && strings.HasSuffix(f.Name.Name, "_test") {
			dst = xtest
		}
		dst.Files = append(dst.Files, f)
		dst.Filenames = append(dst.Filenames, full)
	}
	if len(p.Files) == 0 {
		p = nil
	}
	if len(xtest.Files) == 0 {
		xtest = nil
	}
	return p, xtest, nil
}

// ignoredByBuildTag reports a file opting out of the build entirely
// (//go:build ignore); constraint evaluation beyond that is not
// needed by this module.
func ignoredByBuildTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == "//go:build ignore" {
				return true
			}
		}
	}
	return false
}

func importPath(root, modPath, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modPath
	}
	rel = filepath.ToSlash(rel)
	if modPath == "" {
		return rel
	}
	return modPath + "/" + rel
}

// topoSort orders packages so every intra-module dependency precedes
// its importers, failing on import cycles.
func topoSort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		white = iota
		gray
		black
	)
	state := make(map[*Package]int, len(pkgs))
	var ordered []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		state[p] = gray
		for _, imp := range packageImports(p) {
			if dep := byPath[imp]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = black
		ordered = append(ordered, p)
		return nil
	}
	// Deterministic visit order for deterministic error messages.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// packageImports returns the package's import paths, deduplicated.
func packageImports(p *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

func typeCheck(p *Package, imp types.Importer) error {
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(p.Path, loadFset, p.Files, p.Info)
	if err != nil {
		return fmt.Errorf("lint: typecheck %s: %w", p.Path, err)
	}
	p.Types = tp
	return nil
}
