package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds the approximate per-package call graph the
// interprocedural analyzers (lockcheck, hotpath) share. Resolution is
// deliberately simple and syntax-directed:
//
//   - static calls (package functions, concrete methods) resolve to
//     their *types.Func directly;
//   - interface method calls resolve by method-set matching: every
//     named type declared in the current package or one of its direct
//     imports whose method set satisfies the interface contributes its
//     implementation as a possible callee;
//   - everything else (func values, method-valued fields) is an
//     unknown callee: it contributes no edge.
//
// The universe error interface is excluded from method-set matching:
// every error type in scope would match, and Error() is not a shape any
// of the analyzers' invariants concern.

// callTarget is one possible callee of a call expression.
type callTarget struct {
	fn *types.Func
	// viaIface is the interface method the call was written against
	// when fn was found by method-set matching; nil for static calls.
	viaIface *types.Func
}

// callSite is one call expression with its resolved targets.
type callSite struct {
	call    *ast.CallExpr
	targets []callTarget
}

// funcInfo is one node of the package's approximate call graph.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	// calls are the resolved call edges of the function body. Nested
	// function literals and go statements are excluded: their bodies do
	// not run at the call site.
	calls []callSite
}

// packageGraph builds the call graph of the pass's package: one node
// per declared function or method.
func packageGraph(pass *Pass) map[*types.Func]*funcInfo {
	nodes := map[*types.Func]*funcInfo{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := &funcInfo{fn: fn, decl: fd}
			walkCalls(pass, fd.Body, node)
			nodes[fn] = node
		}
	}
	return nodes
}

// walkCalls collects resolved call edges from root into node, skipping
// nested FuncLits (they run when invoked, not where written) and go
// statements (the spawned goroutine, not the caller, pays for whatever
// the called function does — its argument expressions still run here).
func walkCalls(pass *Pass, root ast.Node, node *funcInfo) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				walkCalls(pass, arg, node)
			}
			return false
		case *ast.CallExpr:
			if targets := resolveCallees(pass, n); len(targets) > 0 {
				node.calls = append(node.calls, callSite{call: n, targets: targets})
			}
		}
		return true
	})
}

// resolveCallees resolves the possible callees of one call expression.
// A nil result means the expression is not a function call at all (a
// conversion, a builtin), has no matchable implementations, or is a
// dynamic call the graph cannot see through.
func resolveCallees(pass *Pass, call *ast.CallExpr) []callTarget {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[f].(*types.Func); ok {
			return []callTarget{{fn: obj}}
		}
		// A builtin, or a func-typed variable or parameter.
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[f]; ok {
			m, _ := sel.Obj().(*types.Func)
			if sel.Kind() != types.MethodVal || m == nil {
				return nil // func-typed struct field
			}
			if recv := m.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return ifaceImpls(pass, m)
			}
			return []callTarget{{fn: m}}
		}
		// Package-qualified call (pkg.Fn).
		if obj, ok := pass.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			return []callTarget{{fn: obj}}
		}
	}
	return nil
}

// ifaceImpls approximates the dynamic targets of an interface method
// call by method-set matching over the named types declared in the
// current package and its direct imports. Scope iteration uses the
// sorted Names() order, so the target list is deterministic.
func ifaceImpls(pass *Pass, m *types.Func) []callTarget {
	recv := m.Type().(*types.Signature).Recv().Type()
	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil || iface.NumMethods() == 0 {
		return nil
	}
	if iface.NumMethods() == 1 && iface.Method(0).Name() == "Error" {
		return nil // the universe error interface: every error type matches
	}
	scopes := []*types.Scope{pass.Pkg.Scope()}
	for _, imp := range pass.Pkg.Imports() {
		scopes = append(scopes, imp.Scope())
	}
	seen := map[*types.Func]bool{}
	var out []callTarget
	for _, sc := range scopes {
		for _, name := range sc.Names() {
			tn, ok := sc.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			// The pointer method set is a superset of the value one, so
			// checking *N covers both receiver forms.
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok && !seen[fn] {
				seen[fn] = true
				out = append(out, callTarget{fn: fn, viaIface: m})
			}
		}
	}
	return out
}

// funcLabel renders a function for diagnostics: package-qualified for
// foreign functions, bare ObjPath for the package under analysis.
func funcLabel(pass *Pass, fn *types.Func) string {
	if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return ObjPath(fn)
	}
	return fn.Pkg().Name() + "." + ObjPath(fn)
}
