package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces pinned-seed reproducibility in the algorithmic
// core: identical inputs and seeds must yield bit-identical results, or
// the differential tests (FasterPAM vs classic, parallel CLARA vs
// sequential, derived vs fresh oracles) stop meaning anything.
//
// It flags three shapes:
//
//   - wall-clock reads (time.Now, time.Since, ...): results must not
//     depend on when they were computed;
//   - the global math/rand source (rand.Intn, rand.Shuffle, ...): all
//     randomness must flow from an injected seeded *rand.Rand;
//   - order-sensitive writes under `for range` over a map: appending to
//     an outer slice with no subsequent sort, or accumulating into an
//     outer float — map iteration order is randomized per range, so both
//     silently break pinned-seed identity (float addition is not
//     associative; the low-order bits wander with visit order).
//
// The obs package gets a stricter rule: it owns the Clock seam, so any
// *reference* to a wall-clock time function (not just a call — storing
// time.Now in a field or passing it as a callback counts) is flagged
// unless it appears in the declaration of a package-level Clock value.
// Everything downstream is expected to read time through obs.Clock,
// which tests can pin.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global math/rand and map-iteration-order dependence in the deterministic core",
	Scope: []string{
		"internal/cluster", "internal/core", "internal/prep",
		"internal/graph", "internal/stats",
		"internal/store", "internal/store/segment", "internal/store/csvdec",
		"internal/obs",
	},
	Run: runDeterminism,
}

// wallClockFuncs are the time-package functions whose results depend on
// when they run.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true, "After": true,
}

// randConstructors are the math/rand functions that merely build
// generators or sources; everything else at package level draws from the
// shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runDeterminism(pass *Pass) error {
	inObs := pass.Pkg.Name() == "obs"
	for _, f := range pass.Files {
		if inObs {
			checkObsWallRefs(pass, f)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !inObs { // obs call sites are covered by the reference rule
					checkWallClock(pass, n)
				}
				checkGlobalRand(pass, n)
			case *ast.BlockStmt:
				checkMapRanges(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkWallClock(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if wallClockFuncs[fn.Name()] {
		pass.Reportf(call.Pos(), "time.%s in the deterministic core: results must not depend on the wall clock", fn.Name())
	}
}

// checkObsWallRefs flags every reference to a wall-clock time function
// in the obs package — called, stored, or passed — except inside the
// declaration of a package-level value of obs's own Clock type, which
// is the one sanctioned binding site for the real clock.
func checkObsWallRefs(pass *Pass, f *ast.File) {
	var clockType types.Type
	if obj := pass.Pkg.Scope().Lookup("Clock"); obj != nil {
		clockType = obj.Type()
	}
	type span struct{ lo, hi token.Pos }
	var exempt []span
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj != nil && clockType != nil && types.Identical(obj.Type(), clockType) {
					exempt = append(exempt, span{vs.Pos(), vs.End()})
					break
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
			return true
		}
		for _, s := range exempt {
			if sel.Pos() >= s.lo && sel.Pos() < s.hi {
				return true
			}
		}
		pass.Reportf(sel.Pos(), "reference to time.%s in obs outside a Clock declaration: route wall-clock reads through the Clock seam", fn.Name())
		return true
	})
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods run on an injected generator
		return
	}
	if randConstructors[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(), "rand.%s draws from the global math/rand source; inject a seeded *rand.Rand instead", fn.Name())
}

// checkMapRanges scans the block's top-level statements so that a
// flagged range-over-map can be cleared by a sort that follows it in the
// same block.
func checkMapRanges(pass *Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		rs, ok := stmt.(*ast.RangeStmt)
		if !ok || !isMapType(pass.TypesInfo.TypeOf(rs.X)) {
			continue
		}
		checkMapRangeBody(pass, rs, block.List[i+1:])
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	reported := map[types.Object]bool{}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		obj := outerTarget(pass, as.Lhs[0], rs)
		if obj == nil || reported[obj] {
			return true
		}
		switch {
		case as.Tok == token.ASSIGN && isAppendTo(pass, as):
			if !sortedAfter(pass, rest, obj) {
				reported[obj] = true
				pass.Reportf(as.Pos(), "appending to %s while ranging over a map leaks map iteration order; sort afterwards or iterate sorted keys", obj.Name())
			}
		case isFloatCompound(pass, as):
			reported[obj] = true
			pass.Reportf(as.Pos(), "float accumulation into %s across map iteration order is nondeterministic (addition is not associative); iterate keys in sorted order", obj.Name())
		}
		return true
	})
}

// outerTarget resolves the assignment target to an object declared
// before the range statement (i.e. an output that survives the loop).
func outerTarget(pass *Pass, lhs ast.Expr, rs *ast.RangeStmt) types.Object {
	id := rootIdent(lhs)
	if id == nil {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos || obj.Pos() >= rs.Pos() {
		return nil
	}
	return obj
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isAppendTo reports whether as is `x = append(x, ...)`.
func isAppendTo(pass *Pass, as *ast.AssignStmt) bool {
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(as.Lhs[0])
}

// isFloatCompound reports whether as is `x op= e` with float-typed x.
func isFloatCompound(pass *Pass, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	t := pass.TypesInfo.TypeOf(as.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortedAfter reports whether any statement following the range calls a
// sort (sort.*, slices.Sort*, or any local helper with "sort" in its
// name) over the given output object.
func sortedAfter(pass *Pass, rest []ast.Stmt, obj types.Object) bool {
	found := false
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !isSortCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall recognizes the standard sort/slices packages and local
// helpers with "sort" in their name (e.g. sortStrings).
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			return true
		}
	}
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// calleeFunc resolves the called function object of a call, or nil for
// builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
