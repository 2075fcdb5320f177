package cli

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func newREPL(t *testing.T, script string) (*REPL, *strings.Builder) {
	t.Helper()
	ds := datagen.Hollywood(rand.New(rand.NewSource(1)))
	e, err := core.NewExplorer(ds.Table, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	return New(e, strings.NewReader(script), &out), &out
}

func TestREPLFullSession(t *testing.T) {
	script := `
themes
cols
theme Budget, WorldwideGross, Profitability
map 4
zoom 0
highlight Genre
hist Budget
scatter Budget WorldwideGross
annotate 0 interesting region
filter Budget >= 10
query
state
rollback
rollback
quit
`
	r, out := newREPL(t, strings.TrimSpace(script))
	r.Run()
	got := out.String()
	for _, want := range []string{
		"Themes (most cohesive first)",
		"Budget",         // cols + theme
		"added theme 4",  // custom theme
		"Data map",       // map render
		"zoomed to",      // zoom
		"values:",        // highlight
		"█",              // histogram bars
		"pearson",        // scatter
		"annotated",      // annotate
		"filtered to",    // filter
		"SELECT",         // query
		"rolled back to", // rollback
		"init",           // state listing
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\n---\n%s", want, got)
		}
	}
	if strings.Contains(got, "error:") {
		t.Errorf("session produced errors:\n%s", got)
	}
}

func TestREPLErrorsDoNotTerminate(t *testing.T) {
	script := strings.Join([]string{
		"map",        // missing arg
		"map abc",    // bad id
		"map 99",     // unknown theme
		"zoom x",     // bad path
		"zoom 0",     // no map yet
		"highlight",  // missing col
		"hist",       // missing col
		"scatter x",  // missing second col
		"annotate 0", // missing text
		"filter",     // missing expr
		"filter ???", // unparseable
		"theme",      // missing cols
		"theme zzz",  // unknown col
		"rollback",   // nothing to roll back
		"project",    // missing arg
		"unknowncmd", // unknown
		"query",      // still works after all errors
		"quit",
	}, "\n")
	r, out := newREPL(t, script)
	r.Run()
	got := out.String()
	if c := strings.Count(got, "error:"); c < 14 {
		t.Errorf("expected >= 14 errors, got %d:\n%s", c, got)
	}
	if !strings.Contains(got, "SELECT") {
		t.Error("REPL died before final query command")
	}
}

func TestREPLSQLAndDescribe(t *testing.T) {
	script := strings.Join([]string{
		"describe",
		"sql SELECT Film, Budget FROM hollywood WHERE Budget >= 100 ORDER BY Budget DESC LIMIT 3",
		"sql garbage query",
		"sql",
		"quit",
	}, "\n")
	r, out := newREPL(t, script)
	r.Run()
	got := out.String()
	if !strings.Contains(got, "mean") || !strings.Contains(got, "Budget") {
		t.Errorf("describe output missing:\n%s", got)
	}
	if !strings.Contains(got, "(3 rows)") {
		t.Errorf("sql output missing:\n%s", got)
	}
	if strings.Count(got, "error:") != 2 {
		t.Errorf("expected 2 sql errors:\n%s", got)
	}
}

func TestREPLGraphAndExport(t *testing.T) {
	script := strings.Join([]string{
		"graph 0.05",
		"map 0",
		"export",
		"quit",
	}, "\n")
	r, out := newREPL(t, script)
	r.Run()
	got := out.String()
	if !strings.Contains(got, "Dependency graph") {
		t.Errorf("graph output missing:\n%s", got)
	}
	if !strings.Contains(got, `"history"`) || !strings.Contains(got, `"select"`) {
		t.Errorf("export output missing:\n%s", got[:min(len(got), 2000)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestREPLEOFEndsSession(t *testing.T) {
	r, out := newREPL(t, "themes")
	r.Run() // input exhausts without quit
	if !strings.Contains(out.String(), "Themes") {
		t.Error("themes not printed")
	}
}

func TestREPLHelp(t *testing.T) {
	r, out := newREPL(t, "help\nquit")
	r.Run()
	for _, cmd := range []string{"zoom", "highlight", "project", "rollback", "scatter", "annotate", "filter"} {
		if !strings.Contains(out.String(), cmd) {
			t.Errorf("help missing %q", cmd)
		}
	}
}

func TestREPLBlankLinesIgnored(t *testing.T) {
	r, out := newREPL(t, "\n\n  \nquery\nquit")
	r.Run()
	if !strings.Contains(out.String(), "SELECT") {
		t.Error("blank lines broke the loop")
	}
}

func TestExecuteReturnsFalseOnQuit(t *testing.T) {
	r, _ := newREPL(t, "")
	for _, q := range []string{"quit", "exit", "q"} {
		if r.Execute(q) {
			t.Errorf("%q should end the session", q)
		}
	}
	if !r.Execute("themes") {
		t.Error("normal command should continue")
	}
}

func TestParsePathHelper(t *testing.T) {
	p, err := pathOf([]string{"1,0", "2"})
	if err != nil || len(p) != 3 || p[0] != 1 || p[2] != 2 {
		t.Errorf("pathOf = %v, %v", p, err)
	}
	if _, err := pathOf([]string{"x"}); err == nil {
		t.Error("bad path should fail")
	}
	if p, _ := pathOf(nil); p != nil {
		t.Error("empty path should be nil")
	}
	// An empty element is an error, as over HTTP; the zoom it would have
	// driven does not happen.
	if _, err := pathOf([]string{"0,,1"}); err == nil {
		t.Error("empty path element should fail")
	}
	r, out := newREPL(t, "map 0\nzoom 0,,1\nstate\nquit")
	r.Run()
	if got := out.String(); !strings.Contains(got, `error: bad path element ""`) || strings.Contains(got, "zoomed to") {
		t.Errorf("zoom 0,,1:\n%s", got)
	}
}

func TestSplitList(t *testing.T) {
	got := splitList("a, b , ,c")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
}
