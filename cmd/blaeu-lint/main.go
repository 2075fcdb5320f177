// Command blaeu-lint runs the repo's custom analyzer suite
// (internal/analysis): determinism over the algorithmic core, fanout
// over the build packages, lockcheck over the concurrent tiers (with
// may-block facts up the call graph), ctxcheck over the request stack,
// hotpath (//blaeu:hot allocation/lock freedom) and metricscheck
// (metrics contract and README catalog sync).
//
//	go run ./cmd/blaeu-lint ./...
//
// loads the packages matching the patterns (default ./...) in
// dependency order, runs the suite in one process with cross-package
// facts threaded bottom-up, then — when the patterns cover the whole
// tree — runs the whole-program Finish hooks (metricscheck's README
// reconciliation); exit status 1 means findings. One flag:
//
//	-json  emit diagnostics as a JSON array on stdout (suppressed
//	       findings included, marked)
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := false
	var patterns []string
	for _, a := range os.Args[1:] {
		switch a {
		case "-json", "--json":
			jsonOut = true
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(lint(patterns, jsonOut))
}

func printDiags(diags []analysis.Diagnostic) {
	cwd, _ := os.Getwd()
	for _, d := range diags {
		fn := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, fn); err == nil && !strings.HasPrefix(rel, "..") {
				fn = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", fn, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// repoRoot resolves the module root (where README.md lives) for the
// Finish hooks.
func repoRoot() string {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		cwd, _ := os.Getwd()
		return cwd
	}
	return string(bytes.TrimSpace(out))
}

func lint(patterns []string, jsonOut bool) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	all, facts, err := analysis.RunPackages(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The Finish hooks reconcile against the whole tree (README catalog
	// vs every registration); running them on a partial package
	// selection would report spurious documented-but-unregistered drift.
	wholeTree := false
	for _, p := range patterns {
		if p == "./..." {
			wholeTree = true
		}
	}
	if wholeTree {
		all = append(all, analysis.RunFinish(analysis.All(), &analysis.FinishContext{
			RepoRoot: repoRoot(),
			Facts:    facts,
		})...)
	}
	failing := analysis.Unsuppressed(all)
	if jsonOut {
		if err := analysis.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		printDiags(failing)
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "blaeu-lint: %d finding(s)\n", len(failing))
		return 1
	}
	return 0
}
