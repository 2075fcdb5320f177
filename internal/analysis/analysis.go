// Package analysis implements blaeu-lint: a suite of project-specific
// static analyzers that enforce the invariants everything in this repo
// rests on — pinned-seed determinism in the algorithmic core, fan-out
// only through the cores budget in the build packages, lock
// discipline in the concurrent tiers (nothing that may block, however
// many calls away, runs under a held mutex), context/deadline
// propagation through the request stack, hot-path allocation/lock
// freedom, and the metrics catalog contract. No stock linter checks
// these; -race and reviewer vigilance were the only guards before this
// suite.
//
// The framework is a deliberately small, dependency-free analogue of
// golang.org/x/tools/go/analysis (that module is not vendored here):
// an Analyzer holds a Run function over a type-checked Pass, packages
// are loaded through `go list -export` plus the standard library's
// gc-export-data importer (see load.go), and cmd/blaeu-lint drives the
// suite over every package in one process.
//
// Interprocedural analysis rests on package facts: an analyzer can
// export facts about its package's objects (ExportFact, keyed by
// ObjPath) and import the facts it exported when it ran over a
// dependency (ImportFact). `go list -deps` hands the loader packages in
// dependency order, so by the time a package is analyzed every fact of
// everything it imports is available — the same bottom-up model
// go/analysis facts use. A fact is the Go value the analyzer exported;
// its key is a path string, not an object, because each package is
// type-checked against export data and so sees its own copy of every
// imported object.
//
// Suppression: a finding can be silenced with
//
//	//blaeu:nolint <analyzer> <reason>
//
// placed at the end of the offending line, alone on the line above it,
// or alone on the line above the statement the finding sits in (so a
// wrapped multi-line call can carry one suppression above it). The
// reason is mandatory and suppressions that silence nothing are
// themselves reported, so stale exemptions cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in reports and nolint comments.
	Name string
	// Doc is a short description of what the analyzer enforces.
	Doc string
	// Scope lists the import-path suffixes the analyzer applies to
	// (e.g. "internal/cluster"). Empty means every package. The driver
	// consults it via AppliesTo; tests invoke Run directly.
	Scope []string
	// Facts marks the analyzer as a fact producer: the interprocedural
	// drivers run it over every loaded package — not just its Scope —
	// so facts accumulate bottom-up through the dependency order, with
	// reporting disabled outside the Scope.
	Facts bool
	// Run reports findings on the pass via Pass.Reportf.
	Run func(*Pass) error
	// Finish, when set, runs once after every package has been analyzed,
	// with the accumulated facts of every package — the hook for global
	// reconciliation such as metricscheck's README catalog check. Finish
	// diagnostics are not suppressible.
	Finish func(fc *FinishContext) []Diagnostic
}

// AppliesTo reports whether the analyzer's scope covers the package.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// FactSet is one analyzer's facts about one package, keyed by object
// path (see ObjPath) or any other stable analyzer-chosen key.
type FactSet map[string]any

// PackageFacts maps analyzer name → that analyzer's FactSet for one
// package.
type PackageFacts map[string]FactSet

// FinishContext is the whole-program view an Analyzer.Finish hook sees.
type FinishContext struct {
	// RepoRoot is the directory the driver resolved as the module root —
	// where README.md lives.
	RepoRoot string
	// Facts maps package import path → the facts every analyzer
	// exported for it.
	Facts map[string]PackageFacts
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report   func(token.Pos, string)
	imported map[string]PackageFacts // import path → dependency facts
	exported FactSet
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// ExportFact records v as this analyzer's fact under key (usually an
// ObjPath) so packages that import this one can read it via ImportFact.
func (p *Pass) ExportFact(key string, v any) {
	if p.exported == nil {
		p.exported = FactSet{}
	}
	p.exported[key] = v
}

// ImportFact returns the fact this same analyzer exported under key
// when it ran over pkgPath, reporting whether one was found.
func (p *Pass) ImportFact(pkgPath, key string) (any, bool) {
	v, ok := p.imported[pkgPath][p.Analyzer.Name][key]
	return v, ok
}

// Analyzed reports whether pkgPath was analyzed earlier in this run —
// its facts (possibly none) are available. Analyzers use it to tell
// "analyzed and clean" apart from "never seen" (standard library).
func (p *Pass) Analyzed(pkgPath string) bool {
	_, ok := p.imported[pkgPath]
	return ok
}

// ObjPath returns the package-local path used as a fact key for a
// package-level object: "Name" for functions and variables,
// "(T).Method" / "(*T).Method" for methods.
func ObjPath(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return fn.Name()
	}
	return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks a finding silenced by a //blaeu:nolint comment.
	// Suppressed findings are kept (the -json output exposes them) but
	// do not fail the build.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// frameworkName labels diagnostics produced by the suppression
// machinery itself (bad or unused nolint comments); these are not
// suppressible.
const frameworkName = "nolint"

// suppression is one parsed //blaeu:nolint comment.
type suppression struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// nolintPrefix introduces a suppression comment.
const nolintPrefix = "blaeu:nolint"

var nolintRe = regexp.MustCompile(`^blaeu:nolint(?:\s+(\S+))?(?:\s+(.*))?$`)

// parseSuppressions extracts every //blaeu:nolint comment of the file.
// Malformed comments (no analyzer name or no reason) are reported
// immediately via report.
func parseSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) []*suppression {
	var out []*suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, nolintPrefix) {
				continue
			}
			// A nested "// ..." marker starts a trailing note (used by the
			// analyzer's own testdata); it is not part of the reason.
			if i := strings.Index(text, " // "); i >= 0 {
				text = strings.TrimSpace(text[:i])
			}
			pos := fset.Position(c.Pos())
			m := nolintRe.FindStringSubmatch(text)
			if m == nil || m[1] == "" {
				report(Diagnostic{Pos: pos, Analyzer: frameworkName,
					Message: "malformed suppression: want //blaeu:nolint <analyzer> <reason>"})
				continue
			}
			if !known[m[1]] {
				report(Diagnostic{Pos: pos, Analyzer: frameworkName,
					Message: fmt.Sprintf("suppression names unknown analyzer %q", m[1])})
				continue
			}
			if strings.TrimSpace(m[2]) == "" {
				report(Diagnostic{Pos: pos, Analyzer: frameworkName,
					Message: fmt.Sprintf("suppression of %q without a reason", m[1])})
				continue
			}
			out = append(out, &suppression{pos: pos, analyzer: m[1], reason: strings.TrimSpace(m[2])})
		}
	}
	return out
}

// covers reports whether the suppression silences a diagnostic of the
// given analyzer: same file, and the comment sits on the diagnostic's
// line, the line directly above it, or on/above the first line of the
// innermost statement enclosing it (stmtLine) — so one comment above a
// wrapped multi-line call covers findings on its continuation lines.
func (s *suppression) covers(d Diagnostic, stmtLine int) bool {
	if s.analyzer != d.Analyzer || s.pos.Filename != d.Pos.Filename {
		return false
	}
	for _, ln := range [...]int{d.Pos.Line, stmtLine} {
		if ln != 0 && (ln == s.pos.Line || ln == s.pos.Line+1) {
			return true
		}
	}
	return false
}

// stmtStartLine returns the starting line of the innermost statement or
// declaration enclosing pos, or 0 when none does.
func stmtStartLine(fset *token.FileSet, files []*ast.File, pos token.Pos) int {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		line := 0
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			switch n.(type) {
			case ast.Stmt, ast.Decl:
				line = fset.Position(n.Pos()).Line
			}
			return true
		})
		return line
	}
	return 0
}

// RunPackage runs the given analyzers over one loaded package, applies
// //blaeu:nolint suppressions, reports unused ones, and returns the
// diagnostics sorted by position — suppressed findings included, marked
// with Suppressed. Analyzer scope is NOT consulted here — the caller
// filters (RunPackages respects Scope, the tests bypass it). No facts
// are threaded; interprocedural callers use RunPackages.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := runPackageFacts(pkg, analyzers, nil, nil)
	return diags, err
}

// runPackageFacts is RunPackage with the interprocedural plumbing:
// imported carries the facts of already-analyzed dependencies (keyed by
// import path), and silent names analyzers that run for their facts
// only — reporting disabled, the mode RunPackages uses outside an
// analyzer's Scope. It returns the diagnostics plus the facts the
// analyzers exported for this package.
func runPackageFacts(pkg *Package, analyzers []*Analyzer, silent map[string]bool, imported map[string]PackageFacts) ([]Diagnostic, PackageFacts, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	var sups []*suppression
	for _, f := range pkg.Files {
		sups = append(sups, parseSuppressions(pkg.Fset, f, known,
			func(d Diagnostic) { diags = append(diags, d) })...)
	}
	facts := PackageFacts{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			imported:  imported,
		}
		name := a.Name
		enabled := !silent[name]
		pass.report = func(pos token.Pos, msg string) {
			if !enabled {
				return
			}
			d := Diagnostic{Pos: pkg.Fset.Position(pos), Analyzer: name, Message: msg}
			stmtLine := stmtStartLine(pkg.Fset, pkg.Files, pos)
			for _, s := range sups {
				if s.covers(d, stmtLine) {
					s.used = true
					d.Suppressed = true
					break
				}
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
		if len(pass.exported) > 0 {
			facts[name] = pass.exported
		}
	}
	for _, s := range sups {
		if !s.used && !silent[s.analyzer] {
			diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: frameworkName,
				Message: fmt.Sprintf("unused suppression of %q (nothing to silence here)", s.analyzer)})
		}
	}
	sortDiags(diags)
	return diags, facts, nil
}

// RunPackages runs the suite over packages already in dependency order
// (Load returns them that way), threading each package's facts to
// everything analyzed after it. Analyzers with Facts set run over every
// package; all analyzers report only where Scope applies. It returns
// the diagnostics sorted by position (suppressed ones included and
// marked) plus the per-package fact tables for RunFinish.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, map[string]PackageFacts, error) {
	facts := map[string]PackageFacts{}
	var all []Diagnostic
	for _, pkg := range pkgs {
		var run []*Analyzer
		silent := map[string]bool{}
		for _, a := range analyzers {
			applies := a.AppliesTo(pkg.ImportPath)
			if !applies && !a.Facts {
				continue
			}
			run = append(run, a)
			if !applies {
				silent[a.Name] = true
			}
		}
		if len(run) == 0 {
			continue
		}
		diags, fs, err := runPackageFacts(pkg, run, silent, facts)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, diags...)
		// Store even empty fact tables: their presence is what lets a
		// later pass distinguish "analyzed, clean" from "never seen".
		facts[pkg.ImportPath] = fs
	}
	sortDiags(all)
	return all, facts, nil
}

// RunFinish invokes the analyzers' Finish hooks over the accumulated
// facts — the driver's whole-program reconciliation step.
func RunFinish(analyzers []*Analyzer, fc *FinishContext) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Finish != nil {
			out = append(out, a.Finish(fc)...)
		}
	}
	sortDiags(out)
	return out
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// Unsuppressed filters diags down to the findings that should fail the
// build: everything not silenced by a //blaeu:nolint comment.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// All returns the blaeu-lint analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Fanout, Lockcheck, Ctxcheck, Hotpath, Metricscheck}
}
