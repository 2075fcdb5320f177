// Command blaeu-lint runs the repo's custom analyzer suite
// (internal/analysis): determinism over the algorithmic core, fanout
// over the build packages, lockcheck over the concurrent tiers, ctxcheck
// over the request stack, plus the
// interprocedural analyzers — blockcheck (may-block facts up the call
// graph), hotpath (//blaeu:hot allocation/lock freedom) and
// metricscheck (metrics contract and README catalog sync).
//
// Standalone:
//
//	go run ./cmd/blaeu-lint ./...
//
// loads the packages matching the patterns (default ./...) in
// dependency order, runs the suite with cross-package facts threaded
// bottom-up, then runs the whole-program Finish hooks (metricscheck's
// README reconciliation); exit status 1 means findings. One flag:
//
//	-json  emit diagnostics as a JSON array on stdout (suppressed
//	       findings included, marked)
//
// As a vet tool:
//
//	go build -o blaeu-lint ./cmd/blaeu-lint
//	go vet -vettool=./blaeu-lint ./...
//
// implements the cmd/vet unitchecker protocol: -V=full for the tool
// identity and a single *.cfg argument per package, with export data
// supplied by the go command. Facts ride the protocol's vetx files:
// each unit writes the merged facts of itself and its dependencies to
// VetxOutput, and reads its dependencies' files back via PackageVetx.
// The Finish hooks do not run under vet — there is no whole-program
// moment; `make lint` (standalone) is the source of truth for those.
// Findings exit 2, matching vet.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		if a == "-V=full" || a == "-V" {
			// The go command hashes this line into its build cache key;
			// v3 marked the interprocedural facts protocol (module
			// packages only — std units carry no facts), v4 the fanout
			// analyzer.
			fmt.Println("blaeu-lint version v4")
			return
		}
		if a == "-flags" {
			// The go command asks which flags the tool supports; the
			// driver flags below are standalone-only.
			fmt.Println("[]")
			return
		}
	}
	jsonOut := false
	var rest []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		default:
			rest = append(rest, a)
		}
	}
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(unitcheck(rest[0]))
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	os.Exit(standalone(rest, jsonOut))
}

// splitSuite partitions the suite for one package: run is every
// analyzer that reports there or produces facts; silent names the
// fact-only ones (reporting disabled outside their Scope).
func splitSuite(importPath string) (run []*analysis.Analyzer, silent map[string]bool) {
	silent = map[string]bool{}
	for _, a := range analysis.All() {
		applies := a.AppliesTo(importPath)
		if !applies && !a.Facts {
			continue
		}
		run = append(run, a)
		if !applies {
			silent[a.Name] = true
		}
	}
	return run, silent
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

func standalone(patterns []string, jsonOut bool) int {
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

// vetConfig is the unitchecker configuration the go command writes for
// each package when invoked via `go vet -vettool`.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	ModulePath                string
	SucceedOnTypecheckFailure bool
}

// readVetxFacts merges the dependency fact tables the go command hands
// us. Each vetx file holds map[importPath]PackageFacts — a package's
// own facts plus its re-exported dependencies' — so merging the direct
// dependencies' files reconstructs the transitive closure.
func readVetxFacts(cfg *vetConfig) map[string]analysis.PackageFacts {
	merged := map[string]analysis.PackageFacts{}
	for _, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		var m map[string]analysis.PackageFacts
		if json.Unmarshal(data, &m) != nil {
			continue // an empty or pre-v2 vetx file carries no facts
		}
		for path, pf := range m {
			if _, ok := merged[path]; !ok {
				merged[path] = pf
			}
		}
	}
	return merged
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "blaeu-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	imported := readVetxFacts(&cfg)
	// The protocol requires the output file even when the unit
	// contributes nothing; written below once the unit's facts exist.
	writeVetx := func(own analysis.PackageFacts) int {
		if cfg.VetxOutput == "" {
			return 0
		}
		merged := make(map[string]analysis.PackageFacts, len(imported)+1)
		for path, pf := range imported {
			merged[path] = pf
		}
		if own != nil {
			merged[cfg.ImportPath] = own
		}
		out, err := json.Marshal(merged)
		if err == nil {
			err = os.WriteFile(cfg.VetxOutput, out, 0o666)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	// Standard-library units (no module path) are never analyzed:
	// blockcheck models the std lib through its curated list, and
	// computing facts from std source would surface absurd witness
	// chains (fmt → reflect panic paths → runtime.gcStart → channel
	// receive) that the standalone driver, which skips std packages
	// entirely, would never report.
	if cfg.ModulePath == "" {
		return writeVetx(nil)
	}
	run, silent := splitSuite(cfg.ImportPath)
	if len(run) == 0 {
		return writeVetx(nil)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, gf := range cfg.GoFiles {
		if strings.HasSuffix(gf, "_test.go") {
			continue // the suite's invariants target production code
		}
		f, err := parser.ParseFile(fset, gf, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeVetx(nil)
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return writeVetx(nil)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if m, ok := cfg.ImportMap[path]; ok {
			path = m
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	pkg, err := analysis.TypecheckFiles(fset, cfg.ImportPath, cfg.Dir, files, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx(nil)
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, facts, err := analysis.RunPackageFacts(pkg, run, silent, imported)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if code := writeVetx(facts); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		return 0
	}
	if failing := analysis.Unsuppressed(diags); len(failing) > 0 {
		printDiags(failing)
		return 2 // vet's diagnostics-found exit status
	}
	return 0
}
