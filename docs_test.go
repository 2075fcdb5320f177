package blaeu

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestDocsNameRealMakeTargets: every `make <target>` the prose quotes,
// every `run: make <target>` of the CI workflow and every .PHONY name is
// a target the Makefile defines — what keeps a deleted target from
// surviving in the documentation.
func TestDocsNameRealMakeTargets(t *testing.T) {
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	makefile := read("Makefile")
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):(?:[^=]|$)`).FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}
	if len(targets) == 0 {
		t.Fatal("no targets parsed from Makefile")
	}
	cited := 0
	check := func(path string, names [][]string) {
		t.Helper()
		cited += len(names)
		for _, m := range names {
			if !targets[m[1]] {
				t.Errorf("%s cites `make %s`, which is not a target of Makefile", path, m[1])
			}
		}
	}
	quoted := regexp.MustCompile("`make ([A-Za-z0-9_-]+)")
	for _, path := range []string{"README.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		check(path, quoted.FindAllStringSubmatch(read(path), -1))
	}
	ci := ".github/workflows/ci.yml"
	check(ci, regexp.MustCompile(`run:\s*make\s+([A-Za-z0-9_-]+)`).FindAllStringSubmatch(read(ci), -1))
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindStringSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	check("Makefile .PHONY", regexp.MustCompile(`([A-Za-z0-9_-]+)`).FindAllStringSubmatch(phony[1], -1))
	if cited < len(targets) {
		t.Errorf("only %d citations found for %d targets: the patterns no longer match how targets are cited", cited, len(targets))
	}
}

// TestMakefileSelectorsNameRealTests: every top-level `|` alternative of
// a Makefile `-run '<re>'` and every `-fuzz=<re>` matches at least one
// Test or Fuzz function in the packages its line names, so a renamed or
// deleted test cannot turn a CI step into a silent "no tests to run".
// A `-run '^$'` selects nothing on purpose and is skipped.
func TestMakefileSelectorsNameRealTests(t *testing.T) {
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	makefile := strings.ReplaceAll(string(b), "$$", "$")
	selector := regexp.MustCompile(`-(run|fuzz)[= ]'?([^' ]+)'?`)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	checked := 0
	for _, line := range strings.Split(makefile, "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		var funcs []string
		for _, arg := range strings.Fields(line) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				funcs = append(funcs, testFuncs(t, arg, testFunc)...)
			}
		}
		for _, m := range selector.FindAllStringSubmatch(line, -1) {
			flag, re := m[1], m[2]
			if flag == "run" && re == "^$" {
				continue
			}
			// go test matches a -run pattern's first '/'-level against
			// top-level names; the levels after it name subtests.
			for _, alt := range topLevel(topLevel(re, '/')[0], '|') {
				checked++
				alt := regexp.MustCompile(alt)
				found := false
				for _, f := range funcs {
					if alt.MatchString(f) && (flag == "run" || strings.HasPrefix(f, "Fuzz")) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("Makefile line %q: -%s alternative %q matches no function in its packages", strings.TrimSpace(line), flag, alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz selectors parsed from Makefile")
	}
}

// topLevel splits re at every sep outside brackets and parentheses.
func topLevel(re string, sep rune) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range re {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, re[start:])
}

// testFuncs lists the Test and Fuzz functions of the packages a go test
// pattern names: one directory, or a tree with a trailing "/...".
func testFuncs(t *testing.T, pattern string, testFunc *regexp.Regexp) []string {
	t.Helper()
	root, tree := strings.CutSuffix(strings.TrimSuffix(pattern, "/"), "/...")
	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (!tree || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(b), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Errorf("Makefile names package %s, which has no test functions", pattern)
	}
	return funcs
}

// TestCodeHealthTableNamesTheSuite: README's Code health table has one
// row per analyzer of analysis.All(), no other, and each row's scope is
// the analyzer's Scope (its internal/ packages, or "every package").
func TestCodeHealthTableNamesTheSuite(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(b), "\n## Code health\n")
	if i < 0 {
		t.Fatal("README has no Code health section")
	}
	rows := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| ([^|]+) \\|").FindAllStringSubmatch(string(b[i:]), -1) {
		rows[m[1]] = m[2]
	}
	for _, a := range analysis.All() {
		want := "every package"
		if len(a.Scope) > 0 {
			want = strings.ReplaceAll(strings.Join(a.Scope, ", "), "internal/", "")
		}
		got, ok := rows[a.Name]
		if !ok {
			t.Errorf("README's Code health table has no row for analyzer %s", a.Name)
			continue
		}
		if got != want {
			t.Errorf("README gives %s the scope %q; the analyzer's Scope is %q", a.Name, got, want)
		}
		delete(rows, a.Name)
	}
	for name := range rows {
		t.Errorf("README's Code health table names %s, which analysis.All() does not", name)
	}
}

// TestReadmeUnder600Lines: README describes the tree as it is, in under
// 600 lines; the history of how it got there lives in CHANGES.md.
func TestReadmeUnder600Lines(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n >= 600 {
		t.Errorf("README.md is %d lines, want under 600", n)
	}
}
