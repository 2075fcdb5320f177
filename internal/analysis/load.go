package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// decodeList parses the JSON stream `go list -json` writes. A package
// carrying a load error aborts the decode — analysis over a partially
// loaded graph would silently skip invariants.
func decodeList(r io.Reader) ([]listPkg, error) {
	dec := json.NewDecoder(r)
	var out []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Load type-checks the packages matching the given `go list` patterns,
// rooted at dir, and returns them in dependency order — a package's
// in-module dependencies come before it, which is what lets RunPackages
// thread facts bottom-up. It shells out to `go list -export -json
// -deps`, which both compiles dependencies' export data as a side
// effect and emits packages dependencies-first, then type-checks each
// target's sources against that export data via the standard gc
// importer — full types.Info with no dependency on golang.org/x/tools.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	listed, err := decodeList(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir type-checks a single directory of Go files as one package —
// the loader used for analyzer testdata, which lives outside the module
// proper (the go tool ignores testdata directories). Imports are
// resolved through export data gathered by `go list`-ing the std
// packages the files mention; testdata may import the standard library
// and nothing else (LoadDirs adds testdata-to-testdata imports).
func LoadDir(dir string) (*Package, error) {
	pkgs, err := LoadDirs(dir)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadDirs type-checks several testdata directories as one dependency
// chain sharing a FileSet: directory i becomes package
// "testdata/<base>", and later directories may import earlier ones by
// that path — the loader behind cross-package fact-propagation tests.
// Standard-library imports resolve through export data as in LoadDir.
func LoadDirs(dirs ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	type parsedDir struct {
		dir, path string
		files     []*ast.File
	}
	var parsedDirs []parsedDir
	stdSet := map[string]bool{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var goFiles []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				goFiles = append(goFiles, e.Name())
			}
		}
		if len(goFiles) == 0 {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		sort.Strings(goFiles)
		var files []*ast.File
		for _, gf := range goFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			for _, im := range f.Imports {
				p := strings.Trim(im.Path.Value, `"`)
				if !strings.HasPrefix(p, "testdata/") {
					stdSet[p] = true
				}
			}
		}
		parsedDirs = append(parsedDirs, parsedDir{
			dir:   dir,
			path:  "testdata/" + filepath.Base(dir),
			files: files,
		})
	}
	exports, err := stdExports(dirs[0], stdSet)
	if err != nil {
		return nil, err
	}
	imp := &chainImporter{
		local: map[string]*types.Package{},
		std:   exportImporter(fset, exports),
	}
	var out []*Package
	for _, p := range parsedDirs {
		pkg, err := typecheckFiles(fset, imp, p.path, p.dir, p.files)
		if err != nil {
			return nil, err
		}
		imp.local[p.path] = pkg.Types
		out = append(out, pkg)
	}
	return out, nil
}

// stdExports resolves the given standard-library import paths to export
// data files by `go list`-ing them from dir.
func stdExports(dir string, importSet map[string]bool) (map[string]string, error) {
	exports := map[string]string{}
	if len(importSet) == 0 {
		return exports, nil
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	args := append([]string{"list", "-export", "-json", "-deps"}, imports...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(imports, " "), err, stderr.String())
	}
	listed, err := decodeList(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// chainImporter resolves already-checked testdata packages first, then
// falls back to gc export data for the standard library.
type chainImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// exportImporter returns a gc-export-data importer resolving import
// paths through the given path → export-file map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func typecheck(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typecheckFiles(fset, imp, importPath, dir, files)
}

func typecheckFiles(fset *token.FileSet, imp types.Importer, importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
