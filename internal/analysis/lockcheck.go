package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockcheck enforces mutex discipline in the concurrent tiers — the
// exact shapes behind the scheduler's historical cancel-on-close and
// submit/close races:
//
//   - a Lock()/RLock() must be paired with a defer Unlock() or an
//     unlock on every path out of the enclosing block (early returns
//     that unlock first are fine; returns that don't are reported);
//   - nothing that may block runs while the mutex is held: no blocking
//     shape (channel send or receive, select without default, range
//     over a channel) and no call to a may-block function.
//
// May-block is a fact per function, computed bottom-up: seeded by the
// blocking shapes in the function's own body and by the blocking
// standard-library calls (time.Sleep, sync waits, file and network IO),
// then propagated up the approximate call graph and across package
// boundaries through exported facts — so a blocking operation two
// packages away behind an innocently named helper is still found, with
// its witness chain. sync.Cond.Wait is exempt at its direct call site
// (it releases the lock itself and is the sanctioned wait shape), but a
// function that waits on a cond does carry the fact: a caller holding a
// *different* mutex has no such guarantee. Dynamic calls (func values)
// are unknown callees and are ignored.
//
// The region walk is a per-block forward scan: it follows the statement
// list from the Lock to the first unconditional release, and within a
// compound statement each nested statement list stops being held at its
// own unlock. A lock at the end of a loop body wraps once around the
// loop (the worker handoff pattern: unlock at the top of the next
// iteration), and an infinite `for {}` that cannot fall through ends the
// outer scan — the loop body manages the lock and is checked on its own.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "require unlock on every path and forbid blocking operations and calls to may-block functions while a mutex is held",
	Scope: []string{
		"internal/jobs", "internal/session", "internal/server",
		"internal/core", "internal/obs", "internal/store/segment",
	},
	Facts: true,
	Run:   runLockcheck,
}

// mayBlockFact is lockcheck's exported fact: the function can block,
// directly or transitively, with a human-readable witness chain.
type mayBlockFact struct {
	Why string
}

func runLockcheck(pass *Pass) error {
	may := mayBlock(pass)
	for fn, why := range may {
		pass.ExportFact(ObjPath(fn), mayBlockFact{Why: why})
	}
	for _, f := range pass.Files {
		loopBodies := map[*ast.BlockStmt]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				loopBodies[n.Body] = true
			case *ast.RangeStmt:
				loopBodies[n.Body] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				if recv, lockName, ok := lockStmt(pass, stmt); ok {
					scanLock(pass, may, block, i, recv, lockName, loopBodies[block])
				}
			}
			return true
		})
	}
	return nil
}

// mayBlock computes the may-block witness of every function the package
// declares: the first blocking shape of its own body, else — by fixpoint
// over the call graph — a call to a may-block function (same package,
// imported fact, or blocking std call).
func mayBlock(pass *Pass) map[*types.Func]string {
	graph := packageGraph(pass)
	may := map[*types.Func]string{}
	for fn, node := range graph {
		why := ""
		inPlace(node.decl.Body, func(n ast.Node) bool {
			if s, ok := blockingShape(pass, n); ok && why == "" {
				why = s.does
			}
			return why == ""
		})
		if why != "" {
			may[fn] = why
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range graph {
			if _, done := may[fn]; done {
				continue
			}
			for _, cs := range node.calls {
				if why, tgt := callBlocks(pass, may, cs.targets); why != "" {
					may[fn] = "calls " + funcLabel(pass, tgt.fn) + ", which " + why
					changed = true
					break
				}
			}
		}
	}
	return may
}

// shape is one syntactic blocking shape: the operation, as a held-lock
// finding names it, and what a function containing it does, as a
// may-block witness says it.
type shape struct{ op, does string }

// blockingShape is the one classifier of the syntactic blocking shapes,
// shared by the may-block seed and the held-lock check.
func blockingShape(pass *Pass, n ast.Node) (shape, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return shape{"channel send", "sends on a channel"}, true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return shape{"channel receive", "receives from a channel"}, true
		}
	case *ast.RangeStmt:
		if t := pass.TypesInfo.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return shape{"ranging over a channel", "ranges over a channel"}, true
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			return shape{"select without default", "selects without a default case"}, true
		}
	}
	return shape{}, false
}

// inPlace walks the nodes of root that run where root runs, calling
// visit on each and descending only where visit returns true. Function
// literals run when invoked and go statements on their own goroutine
// (only the go call's arguments are evaluated here); a select's comm
// operations block, or not, as the select itself, so of a comm clause
// only the body is walked.
func inPlace(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil, *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				inPlace(arg, visit)
			}
			return false
		case *ast.CommClause:
			if visit(n) {
				for _, s := range n.Body {
					inPlace(s, visit)
				}
			}
			return false
		}
		return visit(n)
	})
}

// callBlocks reports why (and through which target) a resolved call may
// block: a may-block function of the same package, an imported
// mayBlockFact, or a blocking standard-library call.
func callBlocks(pass *Pass, may map[*types.Func]string, targets []callTarget) (string, callTarget) {
	for _, tgt := range targets {
		if why := funcBlocks(pass, may, tgt.fn); why != "" {
			return why, tgt
		}
	}
	return "", callTarget{}
}

// funcBlocks resolves one callee's may-block witness, or "".
func funcBlocks(pass *Pass, may map[*types.Func]string, fn *types.Func) string {
	if fn.Pkg() == pass.Pkg {
		return may[fn]
	}
	if why := stdBlocking(fn); why != "" {
		return why
	}
	if fn.Pkg() != nil {
		if fact, ok := pass.ImportFact(fn.Pkg().Path(), ObjPath(fn)); ok {
			return fact.(mayBlockFact).Why
		}
	}
	return ""
}

// stdBlocking classifies blocking standard-library callees: sleeps,
// sync waits, process waits, and the file/network IO syscall surface.
// The net package blocks wholesale; os and os/exec by a curated list.
func stdBlocking(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	name := fn.Name()
	switch pkg.Path() {
	case "time":
		if name == "Sleep" {
			return "sleeps (time.Sleep)"
		}
	case "sync":
		if name == "Wait" {
			return "waits (sync." + recvTypeName(fn) + ".Wait)"
		}
	case "net", "net/http":
		return "performs network IO (" + pkg.Path() + "." + ObjPath(fn) + ")"
	case "os":
		switch name {
		case "Open", "Create", "OpenFile", "ReadFile", "WriteFile", "ReadDir", "Pipe",
			"Read", "ReadAt", "Write", "WriteAt", "Sync", "Close":
			return "performs file IO (os." + ObjPath(fn) + ")"
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput", "Start":
			return "waits on a subprocess (exec." + ObjPath(fn) + ")"
		}
	}
	return ""
}

// recvTypeName names a method's receiver type ("WaitGroup", "Cond").
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// lockStmt matches a bare `x.Lock()` / `x.RLock()` statement on a sync
// mutex and returns the rendered receiver expression.
func lockStmt(pass *Pass, stmt ast.Stmt) (recv, lockName string, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", "", false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	return syncLockCall(pass, call, "Lock", "RLock")
}

// syncLockCall matches a call to one of the named sync-package methods
// and returns the rendered receiver.
func syncLockCall(pass *Pass, call *ast.CallExpr, names ...string) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return types.ExprString(sel.X), n, true
		}
	}
	return "", "", false
}

// lockRegion is one Lock whose held statements are being checked.
type lockRegion struct {
	pass             *Pass
	may              map[*types.Func]string
	recv, unlockName string
}

// scanLock follows the block's statement list from the Lock at index i,
// checking every statement that executes while the lock is held and
// reporting the unlock-discipline findings (return without unlock,
// missing release).
func scanLock(pass *Pass, may map[*types.Func]string, block *ast.BlockStmt, i int, recv, lockName string, isLoopBody bool) {
	unlockName := "Unlock"
	if lockName == "RLock" {
		unlockName = "RUnlock"
	}
	r := &lockRegion{pass: pass, may: may, recv: recv, unlockName: unlockName}
	lockPos := block.List[i].Pos()
	list := append([]ast.Stmt{}, block.List[i+1:]...)
	if isLoopBody {
		// The worker handoff: a lock taken at the bottom of a loop body is
		// released at the top of the next iteration — wrap around once.
		list = append(list, block.List[:i]...)
	}
	deferSeen := false
	for _, stmt := range list {
		if ds, ok := stmt.(*ast.DeferStmt); ok && r.unlocking(ds.Call) {
			deferSeen = true
			continue
		}
		r.held(stmt)
		if deferSeen {
			continue // released at return; keep auditing blocking ops only
		}
		hasUnlock := r.containsUnlock(stmt)
		hasReturn := firstReturn(stmt) != nil
		if infiniteFor(stmt) {
			// Control cannot fall past; the loop body owns the lock
			// lifecycle and is scanned as its own block.
			return
		}
		switch {
		case hasUnlock && !hasReturn:
			return // released on the fall-through path
		case hasUnlock && hasReturn:
			continue // an early-exit path that releases; fall-through still holds
		case hasReturn:
			pass.Reportf(firstReturn(stmt).Pos(), "return while holding %s (%s at line %d) without %s",
				recv, lockName, pass.Fset.Position(lockPos).Line, unlockName)
			return
		}
	}
	if !deferSeen {
		pass.Reportf(lockPos, "%s.%s() is not released on the fall-through path: pair it with defer %s.%s() or an explicit unlock",
			recv, lockName, recv, unlockName)
	}
}

// held reports what root runs while the lock is held: every blocking
// shape, and every call to a may-block function. A statement list
// nested in root stops being held at its own unlock, so what follows
// an unlock inside a branch is not checked.
func (r *lockRegion) held(root ast.Node) {
	pass := r.pass
	inPlace(root, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			for _, e := range n.List {
				r.held(e)
			}
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		case *ast.CallExpr:
			r.call(n)
			return true
		default:
			if s, ok := blockingShape(pass, n); ok {
				pass.Reportf(n.Pos(), "%s while holding %s can block the lock indefinitely", s.op, r.recv)
			}
			return true
		}
		for _, s := range list {
			if es, ok := s.(*ast.ExprStmt); ok && r.unlocking(es.X) {
				break
			}
			r.held(s)
		}
		return false
	})
}

// unlocking reports whether x is a call of recv's unlock.
func (r *lockRegion) unlocking(x ast.Node) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, _, ok := syncLockCall(r.pass, call, r.unlockName)
	return ok && recv == r.recv
}

// call reports a call to a may-block function. sync.Cond.Wait is exempt
// here: it releases the lock itself.
func (r *lockRegion) call(call *ast.CallExpr) {
	pass := r.pass
	targets := resolveCallees(pass, call)
	for _, tgt := range targets {
		if fn := tgt.fn; fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Wait" && recvTypeName(fn) == "Cond" {
			return
		}
	}
	why, tgt := callBlocks(pass, r.may, targets)
	if why == "" {
		return
	}
	label := funcLabel(pass, tgt.fn)
	if tgt.viaIface != nil {
		label += " (via " + funcLabel(pass, tgt.viaIface) + ")"
	}
	pass.Reportf(call.Pos(), "call to %s while holding %s may block the lock: it %s", label, r.recv, why)
}

// containsUnlock reports whether an unlock of recv appears anywhere
// within the statement outside a closure.
func (r *lockRegion) containsUnlock(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's unlock runs on its own schedule
		}
		found = found || r.unlocking(n)
		return !found
	})
	return found
}

func firstReturn(stmt ast.Stmt) *ast.ReturnStmt {
	var ret *ast.ReturnStmt
	ast.Inspect(stmt, func(n ast.Node) bool {
		if ret != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // returns inside closures exit the closure
		case *ast.ReturnStmt:
			ret = n
			return false
		}
		return true
	})
	return ret
}

// infiniteFor matches `for { ... }` with no break anywhere inside —
// control provably never falls past it.
func infiniteFor(stmt ast.Stmt) bool {
	fs, ok := stmt.(*ast.ForStmt)
	if !ok || fs.Cond != nil {
		return false
	}
	hasBreak := false
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		if bs, ok := n.(*ast.BranchStmt); ok && bs.Tok == token.BREAK {
			hasBreak = true
		}
		return !hasBreak
	})
	return !hasBreak
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
