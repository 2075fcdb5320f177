package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the backquoted regexps of a `want` comment.
var wantRe = regexp.MustCompile("`([^`]*)`")

type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runAnalyzerTest is a small analysistest analogue: it loads a testdata
// package, runs one analyzer through the full RunPackage pipeline
// (nolint suppression included), and matches the diagnostics against
// the package's `want` comments — every diagnostic must match a want on
// its line, and every want must be hit.
func runAnalyzerTest(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := RunPackage(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	matchWants(t, collectWants(t, pkg), diags)
}

// collectWants extracts the package's `want` comment assertions.
func collectWants(t *testing.T, pkg *Package) []*wantSpec {
	t.Helper()
	var wants []*wantSpec
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &wantSpec{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// matchWants checks diags against wants both ways: every unsuppressed
// diagnostic must match a want on its line, and every want must be hit.
func matchWants(t *testing.T, wants []*wantSpec, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		if d.Suppressed {
			continue // retained for -json; not part of the want contract
		}
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q: no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestDeterminism(t *testing.T) {
	runAnalyzerTest(t, Determinism, filepath.Join("testdata", "determinism"))
}

func TestFanout(t *testing.T) {
	runAnalyzerTest(t, Fanout, filepath.Join("testdata", "fanout"))
}

func TestLockcheck(t *testing.T) {
	runAnalyzerTest(t, Lockcheck, filepath.Join("testdata", "lockcheck"))
}

func TestCtxcheck(t *testing.T) {
	runAnalyzerTest(t, Ctxcheck, filepath.Join("testdata", "ctxcheck"))
}

func TestAppliesTo(t *testing.T) {
	for _, tc := range []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{Determinism, "repro/internal/stats", true},
		{Determinism, "repro/internal/store", true},
		{Determinism, "repro/internal/store/segment", true},
		{Determinism, "repro/internal/server", false},
		{Fanout, "repro/internal/tree", true},
		{Fanout, "repro/internal/store/segment", true},
		{Fanout, "repro/internal/store/csvdec", false},
		{Fanout, "repro/internal/cores", false},
		{Lockcheck, "repro/internal/jobs", true},
		{Lockcheck, "repro/internal/graph", false},
		{Ctxcheck, "repro/internal/server", true},
		{Ctxcheck, "repro/internal/cluster", false},
	} {
		if got := tc.a.AppliesTo(tc.path); got != tc.want {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", tc.a.Name, tc.path, got, tc.want)
		}
	}
}

// TestLoadSelf exercises the go list based loader against a real module
// package and confirms full type information came back.
func TestLoadSelf(t *testing.T) {
	pkgs, err := Load("..", "./analysis")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.ImportPath != "repro/internal/analysis" {
		t.Errorf("ImportPath = %q", p.ImportPath)
	}
	if len(p.TypesInfo.Uses) == 0 {
		t.Error("no type info recorded")
	}
	found := false
	for id := range p.TypesInfo.Defs {
		if id.Name == "RunPackage" {
			found = true
			break
		}
	}
	if !found {
		t.Error("RunPackage not among definitions")
	}
}
