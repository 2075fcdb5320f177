package blaeu

import (
	"os"
	"regexp"
	"testing"
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
