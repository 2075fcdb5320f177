package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotpath machine-checks the hot-path contract that PR 8 established by
// measurement: wrapping the distance kernels cost 4–19%, so the paths
// PAM scans per candidate swap must stay free of allocation, locking
// and scheduling. A function or closure annotated
//
//	//blaeu:hot
//
// (in the doc comment of a func declaration, or on the line directly
// above — or the same line as — a func literal) must not:
//
//   - allocate: append, make, new, slice/map composite literals,
//     &literal, closure creation, interface boxing, fmt calls, calls
//     into standard-library packages outside the whitelist (math,
//     math/bits, sync/atomic);
//   - iterate a map (hashing cost and randomized order);
//   - acquire locks, spawn goroutines, or touch channels;
//   - call a non-hot function that does any of the above, directly or
//     transitively.
//
// Hot-ness and per-function allocation/lock summaries are exported as
// facts, so the rule crosses package boundaries (a hot Dist in
// internal/cluster may call a hot metric kernel in internal/stats) and
// survives refactors: move the allocation two calls down and the
// witness chain follows it. Dynamic calls through func values are
// invisible to the approximate call graph and are not checked.
var Hotpath = &Analyzer{
	Name:  "hotpath",
	Doc:   "forbid allocation, locking and dirty calls in functions annotated //blaeu:hot",
	Facts: true,
	Run:   runHotpath,
}

// hotMarker is the annotation (after "//") marking a function hot.
const hotMarker = "blaeu:hot"

// hotpathFact is hotpath's exported fact about a function. Hot means
// the function was verified under the hot-path rules, so hot callers
// may call it freely; Allocates/Locks carry transitive dirtiness
// witnesses consulted when hot code calls a non-hot function.
type hotpathFact struct {
	Hot       bool   `json:"hot,omitempty"`
	Allocates string `json:"allocates,omitempty"`
	Locks     string `json:"locks,omitempty"`
}

// summary is the locally computed form of a function's dirtiness.
type summary struct {
	alloc string
	lock  string
}

func (s *summary) clean() bool { return s == nil || (s.alloc == "" && s.lock == "") }

// hotMark is one //blaeu:hot comment; unused marks are reported so a
// stray annotation cannot silently check nothing.
type hotMark struct {
	pos  token.Pos
	used bool
}

func runHotpath(pass *Pass) error {
	graph := packageGraph(pass)
	var allMarks []*hotMark
	marks := hotMarks(pass, &allMarks)
	hotFns := map[*types.Func]bool{}
	for fn, node := range graph {
		if declIsHot(pass, node.decl, marks) {
			hotFns[fn] = true
		}
	}
	sums := summarize(pass, graph, hotFns)

	for fn, node := range graph {
		if hotFns[fn] {
			checkHotBody(pass, node.decl.Body, sums, hotFns)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && litIsHot(pass, lit, marks) {
				checkHotBody(pass, lit.Body, sums, hotFns)
			}
			return true
		})
	}
	for _, m := range allMarks {
		if !m.used {
			pass.Reportf(m.pos, "stray //blaeu:hot: no function declaration or literal starts on this or the next line")
		}
	}

	for fn := range graph {
		fact := hotpathFact{Hot: hotFns[fn]}
		if s := sums[fn]; s != nil {
			fact.Allocates, fact.Locks = s.alloc, s.lock
		}
		if fact.Hot || fact.Allocates != "" || fact.Locks != "" {
			pass.ExportFact(ObjPath(fn), fact)
		}
	}
	return nil
}

// hotMarks indexes //blaeu:hot comments by file and line.
func hotMarks(pass *Pass, all *[]*hotMark) map[string]map[int]*hotMark {
	idx := map[string]map[int]*hotMark{}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text != hotMarker && !strings.HasPrefix(text, hotMarker+" ") {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				if idx[p.Filename] == nil {
					idx[p.Filename] = map[int]*hotMark{}
				}
				m := &hotMark{pos: c.Pos()}
				idx[p.Filename][p.Line] = m
				*all = append(*all, m)
			}
		}
	}
	return idx
}

// declIsHot reports whether the declaration carries a //blaeu:hot
// annotation in its doc comment or on the line directly above it.
func declIsHot(pass *Pass, fd *ast.FuncDecl, marks map[string]map[int]*hotMark) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			p := pass.Fset.Position(c.Pos())
			if m := marks[p.Filename][p.Line]; m != nil {
				m.used = true
				return true
			}
		}
	}
	p := pass.Fset.Position(fd.Pos())
	if m := marks[p.Filename][p.Line-1]; m != nil {
		m.used = true
		return true
	}
	return false
}

// litIsHot reports whether a func literal carries a //blaeu:hot on its
// own starting line or the line directly above.
func litIsHot(pass *Pass, lit *ast.FuncLit, marks map[string]map[int]*hotMark) bool {
	p := pass.Fset.Position(lit.Pos())
	for _, ln := range [...]int{p.Line, p.Line - 1} {
		if m := marks[p.Filename][ln]; m != nil {
			m.used = true
			return true
		}
	}
	return false
}

// summarize computes every declared function's dirtiness: its own
// syntactic allocations plus, by fixpoint over the call graph, the
// dirtiness of everything it calls — imported facts covering callees in
// other packages.
func summarize(pass *Pass, graph map[*types.Func]*funcInfo, hotFns map[*types.Func]bool) map[*types.Func]*summary {
	sums := map[*types.Func]*summary{}
	for fn, node := range graph {
		sums[fn] = &summary{alloc: syntacticDirt(pass, node.decl.Body)}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range graph {
			s := sums[fn]
			if s.alloc != "" && s.lock != "" {
				continue
			}
			for _, cs := range node.calls {
				for _, tgt := range cs.targets {
					c := calleeSummary(pass, sums, hotFns, tgt.fn)
					if c.clean() {
						continue
					}
					if s.alloc == "" && c.alloc != "" {
						s.alloc = "calls " + funcLabel(pass, tgt.fn) + ", which " + c.alloc
						changed = true
					}
					if s.lock == "" && c.lock != "" {
						s.lock = "calls " + funcLabel(pass, tgt.fn) + ", which " + c.lock
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// syntacticDirt returns a witness for the first allocating shape in the
// body, or "". Nested FuncLits count as allocations themselves (a
// closure is heap-allocated when it escapes) but their bodies run
// elsewhere and are skipped, as are go statements' callees.
func syntacticDirt(pass *Pass, body *ast.BlockStmt) string {
	witness := ""
	set := func(w string) {
		if witness == "" {
			witness = w
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if witness != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			set("creates a closure (allocates)")
			return false
		case *ast.GoStmt:
			set("spawns a goroutine")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					set("takes the address of a composite literal (allocates)")
					return false
				}
			}
		case *ast.CompositeLit:
			if allocatingLiteral(pass, n) {
				set("builds a slice or map literal (allocates)")
			}
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(n.X)) {
				set("iterates a map")
			}
		case *ast.CallExpr:
			if b := builtinName(pass, n); b == "append" || b == "make" || b == "new" {
				set(b + " allocates")
			}
		}
		return true
	})
	return witness
}

// allocatingLiteral reports whether the composite literal's own type
// forces a heap-ish allocation (slices and maps; plain struct values
// stay on the stack).
func allocatingLiteral(pass *Pass, lit *ast.CompositeLit) bool {
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// builtinName returns the builtin a call invokes, or "".
func builtinName(pass *Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// hotStdClean lists standard-library packages hot code may call freely:
// pure computation with no allocation.
var hotStdClean = map[string]bool{
	"math": true, "math/bits": true, "sync/atomic": true, "unsafe": true,
}

// calleeSummary resolves one callee's dirtiness for hot-path purposes.
// nil (or an empty summary) means the call is safe: a verified-hot
// function, a whitelisted std kernel, or a function whose analysis
// found nothing.
func calleeSummary(pass *Pass, sums map[*types.Func]*summary, hotFns map[*types.Func]bool, fn *types.Func) *summary {
	if fn.Pkg() == pass.Pkg {
		if hotFns[fn] {
			return nil
		}
		return sums[fn]
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	switch pkg.Path() {
	case "sync":
		switch fn.Name() {
		case "Lock", "RLock", "TryLock", "TryRLock":
			return &summary{lock: "acquires a sync lock"}
		case "Wait", "Do":
			return &summary{lock: "waits on sync." + recvTypeName(fn)}
		}
		return nil
	case "fmt":
		return &summary{alloc: "formats via fmt (allocates)"}
	}
	if hotStdClean[pkg.Path()] {
		return nil
	}
	var fact hotpathFact
	if pass.ImportFact(pkg.Path(), ObjPath(fn), &fact) {
		if fact.Hot {
			return nil
		}
		return &summary{alloc: fact.Allocates, lock: fact.Locks}
	}
	if pass.Analyzed(pkg.Path()) {
		return nil // analyzed earlier in this run; no fact means clean
	}
	// A standard-library (or otherwise unanalyzed) package outside the
	// whitelist: assume the worst.
	return &summary{alloc: "calls into unanalyzed package " + pkg.Path() + " (outside the hot-path whitelist)"}
}

// checkHotBody reports every hot-path violation in a hot function or
// closure body. Nested literals are separate functions: creating one is
// itself flagged, and a nested //blaeu:hot literal is checked by the
// file walk in runHotpath.
func checkHotBody(pass *Pass, body *ast.BlockStmt, sums map[*types.Func]*summary, hotFns map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path: closure creation allocates")
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hot path: go statement spawns a goroutine")
			return false
		case *ast.DeferStmt:
			return true // the deferred call still executes here
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "hot path: channel send")
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "hot path: select blocks on the scheduler")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "hot path: channel receive")
			}
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path: taking the address of a composite literal allocates")
					return false
				}
			}
		case *ast.CompositeLit:
			if allocatingLiteral(pass, n) {
				pass.Reportf(n.Pos(), "hot path: slice or map literal allocates")
			}
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "hot path: map iteration (hashing cost, randomized order)")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, sums, hotFns)
		}
		return true
	})
}

// checkHotCall reports a hot-path violation for one call expression:
// allocating builtins, boxing conversions, and calls to non-hot
// functions whose summary says they allocate or lock.
func checkHotCall(pass *Pass, call *ast.CallExpr, sums map[*types.Func]*summary, hotFns map[*types.Func]bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := pass.TypesInfo.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !isPointerShaped(at) {
				pass.Reportf(call.Pos(), "hot path: conversion to an interface boxes the value (allocates)")
			}
		}
		return
	}
	switch builtinName(pass, call) {
	case "append":
		pass.Reportf(call.Pos(), "hot path: append may grow the backing array (allocates); preallocate outside the hot loop")
		return
	case "make", "new":
		pass.Reportf(call.Pos(), "hot path: %s allocates", builtinName(pass, call))
		return
	}
	for _, tgt := range resolveCallees(pass, call) {
		s := calleeSummary(pass, sums, hotFns, tgt.fn)
		if s.clean() {
			continue
		}
		label := funcLabel(pass, tgt.fn)
		if tgt.viaIface != nil {
			label += " (via " + funcLabel(pass, tgt.viaIface) + ")"
		}
		why := s.alloc
		if why == "" {
			why = s.lock
		}
		pass.Reportf(call.Pos(), "hot path: calls non-hot %s, which %s", label, why)
		return
	}
}

// isPointerShaped reports whether values of t fit in an interface word
// without allocation.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
