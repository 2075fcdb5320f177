package analysis

import "go/ast"

// Fanout keeps the build packages off goroutines of their own: a build's
// data-parallel loops borrow cores through internal/cores, which claims
// only the cores no running job holds and re-raises a task's panic on
// the caller. A go statement in a build package would run beside that
// budget, and its panic would kill the process. internal/cores is the
// one place a computation goroutine starts; csvdec's ingest pipeline is
// outside the rule.
var Fanout = &Analyzer{
	Name: "fanout",
	Doc:  "forbid go statements in the build packages: fan-out goes through internal/cores",
	Scope: []string{
		"internal/cluster", "internal/core", "internal/prep",
		"internal/graph", "internal/stats", "internal/tree",
		"internal/store", "internal/store/segment",
	},
	Run: runFanout,
}

func runFanout(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in a build package: fan out through cores.Run, which borrows only free cores")
			}
			return true
		})
	}
	return nil
}
