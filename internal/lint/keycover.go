package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Keycover guards the content-addressed caches: a struct that feeds a
// Hash/key function (bench.Spec, program.Program, isa.Inst) must have
// every field consumed by that function, because a field the hash
// skips changes behaviour without changing the key — the trace cache
// then returns stale results that still look bit-identical. Fields that genuinely carry no replay semantics (a
// display name, a pre-assembly label) carry a reason-mandatory
// //simlint:nonsemantic annotation.
//
// The analyzer finds hash functions in the package under analysis
// (methods named Hash*, or Hash*-prefixed functions whose first
// parameter is a struct), tracks which locals derive from the hashed
// value, and records field reads per struct type. A whole-value use —
// formatting the struct with %v/%+v, passing it onward, calling a
// method on it — covers every field of that struct at once, which is
// how bench.Spec's reflective hash is recognized.
var Keycover = &Analyzer{
	Name: "keycover",
	Doc:  "every field of a hashed struct must feed its Hash/key function (or be //simlint:nonsemantic)",
	Run:  runKeycover,
}

func runKeycover(pass *Pass) {
	reported := map[*types.Var]bool{}
	for _, f := range pass.Pkg.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			subject, seed := hashSubject(pass, fd)
			if subject == nil {
				continue
			}
			checkHashFunc(pass, fd, subject, seed, reported)
		}
	}
}

// hashSubject recognizes a hash function and returns the hashed struct
// type and the object holding the hashed value: a method named Hash*
// on a named struct receiver, or a Hash*-prefixed function whose first
// parameter is a named struct (or pointer to one).
func hashSubject(pass *Pass, fd *ast.FuncDecl) (*types.Named, types.Object) {
	if !strings.HasPrefix(fd.Name.Name, "Hash") {
		return nil, nil
	}
	var names []*ast.Ident
	if fd.Recv != nil {
		if len(fd.Recv.List) == 0 {
			return nil, nil
		}
		names = fd.Recv.List[0].Names
	} else {
		if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
			return nil, nil
		}
		names = fd.Type.Params.List[0].Names
	}
	if len(names) == 0 {
		return nil, nil
	}
	obj := pass.Pkg.Info.Defs[names[0]]
	if obj == nil {
		return nil, nil
	}
	n := namedStructOf(obj.Type())
	if n == nil {
		return nil, nil
	}
	return n, obj
}

// checkHashFunc analyzes one hash function: every field of the hashed
// struct — and of any struct the function reads fields from along the
// way — must be read or annotated //simlint:nonsemantic.
func checkHashFunc(pass *Pass, fd *ast.FuncDecl, subject *types.Named, seed types.Object, reported map[*types.Var]bool) {
	derived := deriveLocals(pass, fd, subject, seed)
	reads, whole := fieldReads(pass, fd, derived)

	funcName := pass.Pkg.Types.Name() + "." + fd.Name.Name
	checked := []*types.Named{subject}
	for n := range reads {
		if n != subject {
			checked = append(checked, n)
		}
	}
	// Deterministic order (subject first, then declaration position) for
	// deterministic diagnostics.
	sort.Slice(checked, func(i, j int) bool {
		if checked[i] == subject || checked[j] == subject {
			return checked[i] == subject
		}
		return checked[i].Obj().Pos() < checked[j].Obj().Pos()
	})
	for _, n := range checked {
		if whole[n] {
			continue
		}
		p, st := findNamedStruct(pass.All, n)
		if st == nil {
			// The struct's source is outside the loaded set (a
			// standard-library type): there are no fields to audit.
			continue
		}
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				obj, _ := p.Info.Defs[name].(*types.Var)
				if obj == nil || reported[obj] || reads[n][name.Name] {
					continue
				}
				reason, found := fieldAnnotation(pass.Fset, p.Files, name.Pos(), nonsemanticPrefix)
				if found && reason != "" {
					reported[obj] = true
					continue
				}
				reported[obj] = true
				if found {
					pass.Reportf(name.Pos(), "//simlint:nonsemantic on %s.%s needs a reason: say why the field cannot affect replay",
						n.Obj().Name(), name.Name)
					continue
				}
				pass.Reportf(name.Pos(), "field %s.%s is not consumed by %s; a semantic field the key skips poisons the content-addressed caches — hash it or annotate //simlint:nonsemantic <reason>",
					n.Obj().Name(), name.Name, funcName)
			}
		}
	}
}

// deriveLocals computes the fixpoint of locals holding (parts of) the
// hashed value: the seed itself, locals assigned from a derived-rooted
// expression of struct type, and range values over derived containers.
func deriveLocals(pass *Pass, fd *ast.FuncDecl, subject *types.Named, seed types.Object) map[types.Object]*types.Named {
	derived := map[types.Object]*types.Named{seed: subject}
	add := func(id *ast.Ident, n *types.Named) bool {
		if id == nil || n == nil {
			return false
		}
		obj := pass.Pkg.Info.Defs[id]
		if obj == nil {
			obj = pass.Pkg.Info.Uses[id]
		}
		if obj == nil || derived[obj] != nil {
			return false
		}
		derived[obj] = n
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if len(v.Lhs) != len(v.Rhs) {
					return true // multi-value call: nothing derivable by shape
				}
				for i, lhs := range v.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					ro := rootObject(pass, v.Rhs[i])
					if ro == nil || derived[ro] == nil {
						continue
					}
					if add(id, namedStructOf(pass.TypeOf(v.Rhs[i]))) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				id, ok := v.Value.(*ast.Ident)
				if !ok {
					return true
				}
				ro := rootObject(pass, v.X)
				if ro == nil || derived[ro] == nil {
					return true
				}
				if add(id, namedStructOf(elemType(pass.TypeOf(v.X)))) {
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// fieldReads records, per named struct type, which fields the function
// reads through derived values, and which struct types flow somewhere
// whole (covering every field).
func fieldReads(pass *Pass, fd *ast.FuncDecl, derived map[types.Object]*types.Named) (map[*types.Named]map[string]bool, map[*types.Named]bool) {
	reads := map[*types.Named]map[string]bool{}
	whole := map[*types.Named]bool{}
	consumed := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.Pkg.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		rid := rootIdentOf(sel.X)
		if rid == nil {
			return true
		}
		obj := pass.Pkg.Info.Uses[rid]
		if obj == nil || derived[obj] == nil {
			return true
		}
		if nt := namedStructOf(pass.TypeOf(sel.X)); nt != nil {
			m := reads[nt]
			if m == nil {
				m = map[string]bool{}
				reads[nt] = m
			}
			m[sel.Sel.Name] = true
		}
		consumed[rid] = true
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || consumed[id] {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil || derived[obj] == nil {
			return true
		}
		// The value flows whole: %+v formatting, a method call
		// (s.withDefaults()), an argument position, &v. Whatever consumes
		// it can reach every field.
		whole[derived[obj]] = true
		return true
	})
	return reads, whole
}

// findNamedStruct locates a named struct type's declaration among the
// loaded packages, returning the owning package and the struct AST
// (nil when its source is not in the load, as for a standard-library
// type).
func findNamedStruct(all []*Package, n *types.Named) (*Package, *ast.StructType) {
	for _, p := range all {
		if p.Types != n.Obj().Pkg() {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || p.Info.Defs[ts.Name] != n.Obj() {
						continue
					}
					st, _ := ts.Type.(*ast.StructType)
					return p, st
				}
			}
		}
	}
	return nil, nil
}

// namedStructOf unwraps a (possibly pointer) type to its named struct,
// nil for anything else.
func namedStructOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return n
}

// elemType returns a slice/array/map container's element type.
func elemType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	}
	return nil
}

// rootIdentOf resolves an expression chain to its root identifier
// node: x, x.f, x[i].f, (&x).f all root at x.
func rootIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
