package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Errsentinel guards the artifact-cache error contract: sentinel
// errors (ErrArtifactCorrupt and friends) are deliberately wrapped
// with %w on every path so callers classify failures with errors.Is —
// an identity comparison (==, !=, switch case) silently stops matching
// the moment anyone adds context, and re-wrapping with %s/%v severs
// the chain for everyone downstream. Both mistakes type-check and pass
// every happy-path test.
var Errsentinel = &Analyzer{
	Name: "errsentinel",
	Doc:  "sentinel errors must be matched with errors.Is and wrapped with %w",
	Run:  runErrsentinel,
}

var sentinelName = regexp.MustCompile(`^(Err|err)[A-Z]`)

func runErrsentinel(pass *Pass) {
	sentinels := collectSentinels(pass)
	if len(sentinels) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		if pass.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, sentinels, v)
			case *ast.SwitchStmt:
				checkSentinelSwitch(pass, sentinels, v)
			case *ast.CallExpr:
				checkSentinelWrap(pass, sentinels, v)
			}
			return true
		})
	}
}

// collectSentinels gathers package-level error variables named like
// sentinels (Err*/err*) from every loaded package and from the current
// package's module-internal imports — the latter is what lets a vet
// unit, which loads only itself, still see stats.ErrArtifactCorrupt.
func collectSentinels(pass *Pass) map[types.Object]bool {
	out := map[types.Object]bool{}
	scopes := []*types.Scope{}
	for _, p := range pass.All {
		if p.Types != nil {
			scopes = append(scopes, p.Types.Scope())
		}
	}
	modRoot, _, _ := strings.Cut(pass.Pkg.Path, "/")
	if pass.Pkg.Types != nil {
		for _, imp := range pass.Pkg.Types.Imports() {
			if r, _, _ := strings.Cut(imp.Path(), "/"); r == modRoot {
				scopes = append(scopes, imp.Scope())
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			if !sentinelName.MatchString(name) {
				continue
			}
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !types.Identical(v.Type(), errType) {
				continue
			}
			out[v] = true
		}
	}
	return out
}

// sentinelIn resolves an expression to a sentinel object (nil when the
// expression is not a bare or package-qualified sentinel reference).
func sentinelIn(pass *Pass, sentinels map[types.Object]bool, e ast.Expr) types.Object {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj != nil && sentinels[obj] {
		return obj
	}
	return nil
}

func checkSentinelCompare(pass *Pass, sentinels map[types.Object]bool, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	obj := sentinelIn(pass, sentinels, be.X)
	if obj == nil {
		obj = sentinelIn(pass, sentinels, be.Y)
	}
	if obj == nil || isNilExpr(pass, be.X) || isNilExpr(pass, be.Y) {
		return
	}
	fix := "errors.Is"
	if be.Op == token.NEQ {
		fix = "!errors.Is"
	}
	pass.Reportf(be.Pos(), "sentinel %s compared with %s, which stops matching once the error is wrapped; use %s(err, %s)",
		obj.Name(), be.Op, fix, obj.Name())
}

func checkSentinelSwitch(pass *Pass, sentinels map[types.Object]bool, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	if t := pass.TypeOf(sw.Tag); t == nil || !types.Identical(t, types.Universe.Lookup("error").Type()) {
		return
	}
	for _, st := range sw.Body.List {
		cc, ok := st.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if obj := sentinelIn(pass, sentinels, e); obj != nil {
				pass.Reportf(e.Pos(), "switch case matches sentinel %s by identity, which stops matching once the error is wrapped; use errors.Is in an if/else chain",
					obj.Name())
			}
		}
	}
}

// checkSentinelWrap flags fmt.Errorf calls whose format string renders
// a sentinel argument with anything but %w: %s/%v stringify the error
// and sever the chain errors.Is walks.
func checkSentinelWrap(pass *Pass, sentinels map[types.Object]bool, call *ast.CallExpr) {
	if pkg, name := calleePkgFunc(pass, call); pkg != "fmt" || name != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := stringLit(call.Args[0])
	if !ok {
		return
	}
	for _, v := range formatVerbs(format) {
		argIdx := 1 + v.arg
		if v.verb == 'w' || argIdx >= len(call.Args) {
			continue
		}
		if obj := sentinelIn(pass, sentinels, call.Args[argIdx]); obj != nil {
			pass.Reportf(call.Args[argIdx].Pos(), "sentinel %s wrapped with %%%c, which severs the chain errors.Is walks; wrap with %%w",
				obj.Name(), v.verb)
		}
	}
}

// formatVerb is one verb of a format string and the zero-based operand
// index it consumes.
type formatVerb struct {
	verb rune
	arg  int
}

// formatVerbs parses a fmt format string far enough to map verbs to
// operand indices: flags, width/precision (literal or *, each *
// consuming an operand) and explicit [n] argument indexes.
func formatVerbs(format string) []formatVerb {
	var out []formatVerb
	arg := 0
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		if i >= len(rs) {
			break
		}
		if rs[i] == '%' {
			continue
		}
		// Flags.
		for i < len(rs) && strings.ContainsRune("+-# 0", rs[i]) {
			i++
		}
		// Explicit argument index.
		if i < len(rs) && rs[i] == '[' {
			j := i + 1
			n := 0
			for j < len(rs) && rs[j] >= '0' && rs[j] <= '9' {
				n = n*10 + int(rs[j]-'0')
				j++
			}
			if j < len(rs) && rs[j] == ']' && n > 0 {
				arg = n - 1
				i = j + 1
			}
		}
		// Width.
		for i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')) {
			if rs[i] == '*' {
				arg++
			}
			i++
		}
		// Precision.
		if i < len(rs) && rs[i] == '.' {
			i++
			for i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')) {
				if rs[i] == '*' {
					arg++
				}
				i++
			}
		}
		if i >= len(rs) {
			break
		}
		out = append(out, formatVerb{verb: rs[i], arg: arg})
		arg++
	}
	return out
}

// isNilExpr reports the untyped nil literal.
func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.IsNil()
}
