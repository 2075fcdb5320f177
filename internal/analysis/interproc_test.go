package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scopeless copies an analyzer with its Scope cleared, so RunPackages
// reports on testdata import paths (the drivers filter by Scope; the
// rules themselves are what these tests pin).
func scopeless(a *Analyzer) *Analyzer {
	c := *a
	c.Scope = nil
	return &c
}

// runCrossPackageTest loads the testdata directories as one dependency
// chain, runs the analyzer over all of them with facts threaded, and
// matches the union of `want` comments. It returns the diagnostics for
// additional assertions.
func runCrossPackageTest(t *testing.T, a *Analyzer, dirs ...string) []Diagnostic {
	t.Helper()
	pkgs, err := LoadDirs(dirs...)
	if err != nil {
		t.Fatalf("loading %v: %v", dirs, err)
	}
	var wants []*wantSpec
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	diags, _, err := RunPackages(pkgs, []*Analyzer{scopeless(a)})
	if err != nil {
		t.Fatalf("running %s over %v: %v", a.Name, dirs, err)
	}
	matchWants(t, wants, diags)
	return diags
}

// TestBlockcheck runs lockcheck over the may-block fixture: facts
// propagating up the call graph, and calls to may-block functions under
// a held mutex.
func TestBlockcheck(t *testing.T) {
	runAnalyzerTest(t, Lockcheck, filepath.Join("testdata", "blockcheck"))
}

// TestBlockcheckCrossPackage: a held-lock call to an innocently named
// function whose blocking hides in another package is found through
// the dependency's exported may-block fact.
func TestBlockcheckCrossPackage(t *testing.T) {
	runCrossPackageTest(t, Lockcheck,
		filepath.Join("testdata", "blockdep"), filepath.Join("testdata", "blockuse"))
}

func TestHotpath(t *testing.T) {
	runAnalyzerTest(t, Hotpath, filepath.Join("testdata", "hotpath"))
}

func TestHotpathCrossPackage(t *testing.T) {
	diags := runCrossPackageTest(t, Hotpath,
		filepath.Join("testdata", "hotdep"), filepath.Join("testdata", "hotuse"))
	// The hot fact must also clear the clean call: exactly the one
	// finding the want comments pin, nothing on the Kernel call.
	for _, d := range diags {
		if strings.Contains(d.Message, "Kernel") {
			t.Errorf("verified-hot dependency call was flagged: %s", d)
		}
	}
}

func TestMetricscheck(t *testing.T) {
	runCrossPackageTest(t, Metricscheck,
		filepath.Join("testdata", "obs"), filepath.Join("testdata", "metricscheck"))
}

// TestDeterminismObsClock pins the obs-only wall-clock-reference rule,
// including the Clock-declaration exemption.
func TestDeterminismObsClock(t *testing.T) {
	runAnalyzerTest(t, Determinism, filepath.Join("testdata", "obsclock"))
}

// TestMetricscheckREADMEDrift proves the Finish reconciliation fails in
// both directions: a registered series missing from the catalog, and a
// documented series that is never registered.
func TestMetricscheckREADMEDrift(t *testing.T) {
	dir := t.TempDir()
	readme := strings.Join([]string{
		"# fixture",
		"",
		"## Observability",
		"",
		"| series | what it measures |",
		"| --- | --- |",
		"| `blaeu_documented_total` | registered and documented |",
		"| `blaeu_ghost_total` | documented but never registered |",
		"",
		"## Next section",
		"",
		"| `blaeu_outside_total` | outside the Observability section, ignored |",
		"",
	}, "\n")
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte(readme), 0o644); err != nil {
		t.Fatal(err)
	}
	fact := func(name string, line int) metricFact {
		return metricFact{Name: name, File: "m.go", Line: line}
	}
	fc := &FinishContext{
		RepoRoot: dir,
		Facts: map[string]PackageFacts{
			"repro/internal/x": {metricscheckName: FactSet{
				"blaeu_documented_total@m.go:10": fact("blaeu_documented_total", 10),
				"blaeu_orphan_total@m.go:20":     fact("blaeu_orphan_total", 20),
			}},
		},
	}
	diags := RunFinish([]*Analyzer{Metricscheck}, fc)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "metric blaeu_orphan_total is registered here but missing from README's Observability catalog") {
		t.Errorf("missing registered-but-undocumented drift; got:\n%s", joined)
	}
	if !strings.Contains(joined, "README documents metric blaeu_ghost_total, which is never registered") {
		t.Errorf("missing documented-but-unregistered drift; got:\n%s", joined)
	}
	if strings.Contains(joined, "blaeu_documented_total") {
		t.Errorf("in-sync series reported as drift; got:\n%s", joined)
	}
	if strings.Contains(joined, "blaeu_outside_total") {
		t.Errorf("series outside the Observability section should be ignored; got:\n%s", joined)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "blaeu_orphan_total") && (d.Pos.Filename != "m.go" || d.Pos.Line != 20) {
			t.Errorf("drift should point at the registration site, got %s", d.Pos)
		}
	}
}

// TestCrossPackageFactPlumbing pins the raw fact model: lockcheck's
// may-block facts for the dependency are visible as the Go values it
// exported, keyed by ObjPath, and an analyzed-but-clean package still
// has a (possibly empty) table.
func TestCrossPackageFactPlumbing(t *testing.T) {
	dirs := []string{filepath.Join("testdata", "blockdep"), filepath.Join("testdata", "blockuse")}
	pkgs, err := LoadDirs(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	_, facts, err := RunPackages(pkgs, []*Analyzer{scopeless(Lockcheck)})
	if err != nil {
		t.Fatal(err)
	}
	dep, ok := facts["testdata/blockdep"]
	if !ok {
		t.Fatal("no fact table for testdata/blockdep")
	}
	v, ok := dep[Lockcheck.Name]["Tidy"]
	if !ok {
		t.Fatalf("no may-block fact for Tidy; have %v", dep[Lockcheck.Name])
	}
	if f, ok := v.(mayBlockFact); !ok || !strings.Contains(f.Why, "time.Sleep") {
		t.Errorf("Tidy fact = %#v, want a mayBlockFact witnessing time.Sleep", v)
	}
	if _, ok := facts["testdata/blockuse"]; !ok {
		t.Error("analyzed package missing its (empty) fact table")
	}
}
