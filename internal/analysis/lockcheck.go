package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockcheck enforces mutex discipline in the concurrent tiers — the
// exact shapes behind the scheduler's historical cancel-on-close and
// submit/close races:
//
//   - a Lock()/RLock() must be paired with a defer Unlock() or an
//     unlock on every path out of the enclosing block (early returns
//     that unlock first are fine; returns that don't are reported);
//   - blocking operations (channel send/receive, select without
//     default, calls named Submit/Wait/Sleep/Acquire) while
//     the mutex is held are reported. sync.Cond.Wait is exempt — it
//     releases the lock itself and is the sanctioned wait shape.
//
// The scan is a per-block forward walk: it follows the statement list
// from the Lock to the first unconditional release. A lock at the end
// of a loop body wraps once around the loop (the worker handoff
// pattern: unlock at the top of the next iteration), and an infinite
// `for {}` that cannot fall through ends the outer scan — the loop body
// manages the lock and is checked on its own.
var Lockcheck = &Analyzer{
	Name:  "lockcheck",
	Doc:   "require unlock on every path and forbid blocking operations while a mutex is held",
	Scope: []string{"internal/jobs", "internal/session", "internal/core", "internal/obs"},
	Run:   runLockcheck,
}

// blockingNames are call names treated as potentially blocking when they
// appear while a mutex is held.
var blockingNames = map[string]bool{
	"Submit": true, "Wait": true, "Sleep": true, "Acquire": true,
}

func runLockcheck(pass *Pass) error {
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
					held := func(s ast.Stmt) { reportBlocking(pass, s, recv) }
					scanLock(pass, block, i, recv, lockName, loopBodies[block], held, true)
				}
			}
			return true
		})
	}
	return nil
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

// scanLock follows the block's statement list from the Lock at index i,
// invoking held for every statement that executes while the lock is
// held. When reportLockBugs is set it additionally reports the
// unlock-discipline findings (return-without-unlock, missing release) —
// lockcheck's rule; blockcheck reuses the same region walk with its own
// held callback and the discipline reports off.
func scanLock(pass *Pass, block *ast.BlockStmt, i int, recv, lockName string, isLoopBody bool, held func(ast.Stmt), reportLockBugs bool) {
	unlockName := "Unlock"
	if lockName == "RLock" {
		unlockName = "RUnlock"
	}
	lockPos := block.List[i].Pos()
	list := append([]ast.Stmt{}, block.List[i+1:]...)
	if isLoopBody {
		// The worker handoff: a lock taken at the bottom of a loop body is
		// released at the top of the next iteration — wrap around once.
		list = append(list, block.List[:i]...)
	}
	deferSeen := false
	for _, stmt := range list {
		if deferUnlocks(pass, stmt, recv, unlockName) {
			deferSeen = true
			continue
		}
		held(stmt)
		if deferSeen {
			continue // released at return; keep auditing blocking ops only
		}
		hasUnlock := containsUnlock(pass, stmt, recv, unlockName)
		hasReturn := containsReturn(stmt)
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
			if reportLockBugs {
				pass.Reportf(firstReturn(stmt).Pos(), "return while holding %s (%s at line %d) without %s",
					recv, lockName, pass.Fset.Position(lockPos).Line, unlockName)
			}
			return
		}
	}
	if !deferSeen && reportLockBugs {
		pass.Reportf(lockPos, "%s.%s() is not released on the fall-through path: pair it with defer %s.%s() or an explicit unlock",
			recv, lockName, recv, unlockName)
	}
}

// deferUnlocks matches `defer recv.Unlock()`.
func deferUnlocks(pass *Pass, stmt ast.Stmt, recv, unlockName string) bool {
	ds, ok := stmt.(*ast.DeferStmt)
	if !ok {
		return false
	}
	r, _, ok := syncLockCall(pass, ds.Call, unlockName)
	return ok && r == recv
}

// containsUnlock reports whether a matching non-deferred unlock call
// appears anywhere within the statement.
func containsUnlock(pass *Pass, stmt ast.Stmt, recv, unlockName string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's unlock runs on its own schedule
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if r, _, ok := syncLockCall(pass, call, unlockName); ok && r == recv {
				found = true
			}
		}
		return !found
	})
	return found
}

func containsReturn(stmt ast.Stmt) bool { return firstReturn(stmt) != nil }

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

// reportBlocking flags blocking operations within stmt (the mutex is
// held when it executes). Closure bodies are skipped: they run when
// invoked, not necessarily under the lock.
func reportBlocking(pass *Pass, stmt ast.Stmt, recv string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while holding %s can block the lock indefinitely", recv)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while holding %s can block the lock indefinitely", recv)
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				pass.Reportf(n.Pos(), "select without default while holding %s can block the lock indefinitely", recv)
			}
			// A select's own cases block (or not) as a unit; don't also
			// report each comm clause.
			return false
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.Reportf(n.Pos(), "ranging over a channel while holding %s can block the lock indefinitely", recv)
				}
			}
		case *ast.CallExpr:
			if name, ok := blockingCall(pass, n); ok {
				pass.Reportf(n.Pos(), "%s while holding %s can block the lock indefinitely", name, recv)
			}
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall matches calls whose name suggests waiting (Submit, Wait,
// Sleep, ...). sync.Cond.Wait is exempt: it releases the lock itself.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || !blockingNames[fn.Name()] {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type().String()
		if strings.Contains(rt, "sync.Cond") {
			return "", false
		}
	}
	return "call to " + fn.Name(), true
}
