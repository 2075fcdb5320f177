package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The loader's failure modes must be errors, never panics: a broken
// tree fed to blaeu-lint should print one diagnostic line and exit,
// not stack-trace.

func TestDecodeListMalformedJSON(t *testing.T) {
	_, err := decodeList(strings.NewReader(`{"ImportPath": "x", `))
	if err == nil {
		t.Fatal("malformed go list JSON: want error, got nil")
	}
	if !strings.Contains(err.Error(), "decoding go list output") {
		t.Errorf("error = %v, want a decode error", err)
	}
}

func TestDecodeListPackageError(t *testing.T) {
	in := `{"ImportPath": "broken/pkg", "Error": {"Err": "no Go files in /tmp/broken"}}`
	_, err := decodeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("go list package error: want error, got nil")
	}
	for _, frag := range []string{"broken/pkg", "no Go files"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error = %v, want it to mention %q", err, frag)
		}
	}
}

func TestDecodeListOK(t *testing.T) {
	in := `{"ImportPath": "a", "Standard": true}
{"ImportPath": "b", "GoFiles": ["b.go"]}`
	pkgs, err := decodeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].ImportPath != "a" || pkgs[1].ImportPath != "b" {
		t.Errorf("decoded %+v", pkgs)
	}
}

// TestLoadTypeCheckFailure: a package that does not compile must come
// back as an error from Load, not a panic or a silent skip.
func TestLoadTypeCheckFailure(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":    "module brokenmod\n\ngo 1.21\n",
		"broken.go": "package brokenmod\n\nvar x int = \"not an int\"\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Load(dir, ".")
	if err == nil {
		t.Fatal("Load of a non-compiling package: want error, got nil")
	}
}
