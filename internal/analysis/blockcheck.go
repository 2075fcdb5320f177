package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Blockcheck is the interprocedural successor to lockcheck's
// blocking-op rule. Where lockcheck name-matches calls (Submit, Wait,
// Sleep, ...) at the call site, blockcheck computes a MayBlock fact per
// function — seeded by the syntactic blocking shapes (channel send and
// receive, select without default, range over a channel) and the
// blocking standard-library calls (time.Sleep, WaitGroup.Wait, file
// and network IO) — and propagates it up the approximate call graph,
// across package boundaries through exported facts. A call to a
// may-block function while a mutex is held is a finding, even when the
// blocking operation hides two packages away behind an innocently
// named helper.
//
// Call sites lockcheck already flags by name are skipped, so the two
// analyzers never double-report; blockcheck adds exactly what the
// name heuristic cannot see. sync.Cond.Wait stays exempt at the direct
// call site (it releases the lock itself), but a function that waits on
// a cond does carry the MayBlock fact — a caller holding a *different*
// mutex has no such guarantee.
//
// Dynamic calls (func values) are unknown callees and are ignored.
var Blockcheck = &Analyzer{
	Name: "blockcheck",
	Doc:  "propagate may-block facts up the call graph and forbid calls to may-block functions while a mutex is held",
	Scope: []string{
		"internal/jobs", "internal/session", "internal/server",
		"internal/core", "internal/obs", "internal/store/segment",
	},
	Facts: true,
	Run:   runBlockcheck,
}

// mayBlockFact is blockcheck's exported fact: the function can block,
// directly or transitively, with a human-readable witness chain.
type mayBlockFact struct {
	Why string `json:"why"`
}

func runBlockcheck(pass *Pass) error {
	graph := packageGraph(pass)
	may := map[*types.Func]string{}

	// Seed: syntactic blocking shapes in each function's own body.
	for fn, node := range graph {
		if why := directBlock(pass, node.decl.Body); why != "" {
			may[fn] = why
		}
	}

	// Fixpoint: a call to a may-block function (same package, imported
	// fact, or blocking std call) makes the caller may-block.
	for changed := true; changed; {
		changed = false
		for fn, node := range graph {
			if _, done := may[fn]; done {
				continue
			}
			for _, cs := range node.calls {
				why, tgt := callBlocks(pass, may, cs)
				if why == "" {
					continue
				}
				may[fn] = "calls " + funcLabel(pass, tgt) + ", which " + why
				changed = true
				break
			}
		}
	}

	for fn, why := range may {
		pass.ExportFact(ObjPath(fn), mayBlockFact{Why: why})
	}

	// Lock regions: reuse lockcheck's region walk, reporting calls to
	// may-block functions while the lock is held.
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
					held := func(s ast.Stmt) { checkHeldStmt(pass, may, s, recv) }
					scanLock(pass, block, i, recv, lockName, loopBodies[block], held, false)
				}
			}
			return true
		})
	}
	return nil
}

// callBlocks reports why (and through which target) a resolved call may
// block: a may-block function of the same package, an imported
// mayBlockFact, or a blocking standard-library call.
func callBlocks(pass *Pass, may map[*types.Func]string, cs callSite) (string, *types.Func) {
	for _, tgt := range cs.targets {
		if why, ok := funcBlocks(pass, may, tgt.fn); ok {
			return why, tgt.fn
		}
	}
	return "", nil
}

// funcBlocks resolves one callee's may-block status.
func funcBlocks(pass *Pass, may map[*types.Func]string, fn *types.Func) (string, bool) {
	if fn.Pkg() == pass.Pkg {
		why, ok := may[fn]
		return why, ok
	}
	if why, ok := stdBlocking(fn); ok {
		return why, true
	}
	if fn.Pkg() != nil {
		var fact mayBlockFact
		if pass.ImportFact(fn.Pkg().Path(), ObjPath(fn), &fact) {
			return fact.Why, true
		}
	}
	return "", false
}

// stdBlocking classifies blocking standard-library callees: sleeps,
// sync waits, process waits, and the file/network IO syscall surface.
// The net package blocks wholesale; os and os/exec by a curated list.
func stdBlocking(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	name := fn.Name()
	switch pkg.Path() {
	case "time":
		if name == "Sleep" {
			return "sleeps (time.Sleep)", true
		}
	case "sync":
		if name == "Wait" {
			return "waits (sync." + recvTypeName(fn) + ".Wait)", true
		}
	case "net", "net/http":
		return "performs network IO (" + pkg.Path() + "." + ObjPath(fn) + ")", true
	case "os":
		switch name {
		case "Open", "Create", "OpenFile", "ReadFile", "WriteFile", "ReadDir", "Pipe",
			"Read", "ReadAt", "Write", "WriteAt", "Sync", "Close":
			return "performs file IO (os." + ObjPath(fn) + ")", true
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput", "Start":
			return "waits on a subprocess (exec." + ObjPath(fn) + ")", true
		}
	}
	return "", false
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

// directBlock scans a function body for the syntactic blocking shapes,
// returning a witness description or "". Nested FuncLits and go
// statements are skipped (their bodies do not run here); the comm
// operations of a select with a default case are non-blocking as a
// unit, but the clause bodies still count.
func directBlock(pass *Pass, body *ast.BlockStmt) string {
	var why string
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if why != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SendStmt:
				why = "sends on a channel"
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					why = "receives from a channel"
				}
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						why = "ranges over a channel"
					}
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					why = "selects without a default case"
					return false
				}
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			}
			return true
		})
	}
	walk(body)
	return why
}

// checkHeldStmt reports calls to may-block functions within a statement
// that executes while recv's lock is held. Call sites lockcheck's name
// rule already covers (blockingNames) are skipped.
func checkHeldStmt(pass *Pass, may map[*types.Func]string, stmt ast.Stmt, recv string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			for _, tgt := range resolveCallees(pass, n) {
				if blockingNames[tgt.fn.Name()] {
					continue // lockcheck's name rule owns this call site
				}
				why, ok := funcBlocks(pass, may, tgt.fn)
				if !ok {
					continue
				}
				label := funcLabel(pass, tgt.fn)
				if tgt.viaIface != nil {
					label += " (via " + funcLabel(pass, tgt.viaIface) + ")"
				}
				pass.Reportf(n.Pos(), "call to %s while holding %s may block the lock: it %s", label, recv, why)
				break
			}
		}
		return true
	})
}
