package blaeu

import (
	"os"
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
