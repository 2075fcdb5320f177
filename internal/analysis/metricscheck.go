package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const metricscheckName = "metricscheck"

// Metricscheck enforces the metrics contract end to end. At every
// registry registration — a call to (obs.Registry).Counter / Gauge /
// Histogram — the series name must be a constant string carrying the
// blaeu_ prefix, label keys must be constants (static keys are the
// cardinality contract), and no label value may be built with fmt
// (fmt.Sprintf-derived values are how unbounded cardinality sneaks in).
// Every registration exports a fact; the Finish hook reconciles the
// union of registered series against the catalog table in README's
// Observability section and reports drift in both directions, so the
// hand-written catalog cannot rot. The README check runs when the
// driver lints the whole tree (`make lint`).
var Metricscheck = &Analyzer{
	Name:   metricscheckName,
	Doc:    "enforce blaeu_-prefixed constant metric names, constant label keys, fmt-free label values, and README catalog sync",
	Facts:  true,
	Run:    runMetricscheck,
	Finish: finishMetricscheck,
}

// metricFact records one registration site of a metric family.
type metricFact struct {
	Name string
	File string
	Line int
}

func runMetricscheck(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isRegistryMethod(fn) {
				return true
			}
			checkRegistration(pass, f, call, fn)
			return true
		})
	}
	return nil
}

// isRegistryMethod matches the get-or-create methods of obs.Registry.
func isRegistryMethod(fn *types.Func) bool {
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram":
	default:
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Name() == "obs" && recvTypeName(fn) == "Registry"
}

func checkRegistration(pass *Pass, file *ast.File, call *ast.CallExpr, fn *types.Func) {
	if len(call.Args) == 0 {
		return
	}
	name := ""
	if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name = constant.StringVal(tv.Value)
	}
	switch {
	case name == "":
		pass.Reportf(call.Args[0].Pos(), "metric name in a registry %s call must be a constant string", fn.Name())
	case !strings.HasPrefix(name, "blaeu_"):
		pass.Reportf(call.Args[0].Pos(), "metric name %q must carry the blaeu_ prefix", name)
	default:
		p := pass.Fset.Position(call.Pos())
		key := fmt.Sprintf("%s@%s:%d", name, filepath.Base(p.Filename), p.Line)
		pass.ExportFact(key, metricFact{Name: name, File: p.Filename, Line: p.Line})
	}
	labelIdx := 2
	if fn.Name() == "Histogram" {
		labelIdx = 3 // Histogram(name, help, buckets, labels)
	}
	if len(call.Args) <= labelIdx {
		return
	}
	checkLabels(pass, file, call.Args[labelIdx])
}

func checkLabels(pass *Pass, file *ast.File, arg ast.Expr) {
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.CompositeLit); ok {
		checkLabelLit(pass, lit)
		return
	}
	if id, ok := arg.(*ast.Ident); ok {
		if id.Name == "nil" {
			return
		}
		if lit := localLabelLit(pass, file, id); lit != nil {
			checkLabelLit(pass, lit)
			return
		}
	}
	pass.Reportf(arg.Pos(), "labels must be a composite literal (or a local variable assigned exactly one): static label keys are the cardinality contract")
}

func checkLabelLit(pass *Pass, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[kv.Key]; !ok || tv.Value == nil {
			pass.Reportf(kv.Key.Pos(), "label key must be a constant string")
		}
		ast.Inspect(kv.Value, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				pass.Reportf(call.Pos(), "label value built with fmt.%s risks unbounded cardinality; use a bounded constant set", fn.Name())
			}
			return true
		})
	}
}

// localLabelLit resolves a labels variable to the composite literal it
// was assigned, provided the file assigns it exactly once — the
// `l := obs.Labels{...}` helper-variable shape.
func localLabelLit(pass *Pass, file *ast.File, id *ast.Ident) *ast.CompositeLit {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	var lit *ast.CompositeLit
	count := 0
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if pass.TypesInfo.Defs[lid] != obj && pass.TypesInfo.Uses[lid] != obj {
					continue
				}
				count++
				if i < len(n.Rhs) {
					if cl, ok := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit); ok {
						lit = cl
					}
				}
			}
		case *ast.ValueSpec:
			for i, nm := range n.Names {
				if pass.TypesInfo.Defs[nm] != obj {
					continue
				}
				count++
				if i < len(n.Values) {
					if cl, ok := ast.Unparen(n.Values[i]).(*ast.CompositeLit); ok {
						lit = cl
					}
				}
			}
		}
		return true
	})
	if count == 1 {
		return lit
	}
	return nil
}

// metricNameRe extracts series names from README catalog lines.
var metricNameRe = regexp.MustCompile(`\bblaeu_[a-z0-9_]+\b`)

func finishMetricscheck(fc *FinishContext) []Diagnostic {
	// One representative site per family, earliest position winning, so
	// drift reports are stable.
	registered := map[string]metricFact{}
	for _, pf := range fc.Facts {
		fs := pf[metricscheckName]
		keys := make([]string, 0, len(fs))
		for k := range fs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			site := fs[k].(metricFact)
			prev, ok := registered[site.Name]
			if !ok || site.File < prev.File || (site.File == prev.File && site.Line < prev.Line) {
				registered[site.Name] = site
			}
		}
	}

	readme := filepath.Join(fc.RepoRoot, "README.md")
	data, err := os.ReadFile(readme)
	if err != nil {
		return []Diagnostic{{
			Pos:      token.Position{Filename: readme, Line: 1},
			Analyzer: metricscheckName,
			Message:  "cannot read README.md for the Observability catalog check: " + err.Error(),
		}}
	}
	documented := map[string]int{}
	inObs := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inObs = strings.HasPrefix(line, "## Observability")
		}
		if !inObs || !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range metricNameRe.FindAllString(line, -1) {
			if _, ok := documented[m]; !ok {
				documented[m] = i + 1
			}
		}
	}

	var out []Diagnostic
	names := make([]string, 0, len(registered))
	for n := range registered {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := documented[n]; !ok {
			site := registered[n]
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: site.File, Line: site.Line},
				Analyzer: metricscheckName,
				Message:  fmt.Sprintf("metric %s is registered here but missing from README's Observability catalog", n),
			})
		}
	}
	docNames := make([]string, 0, len(documented))
	for n := range documented {
		docNames = append(docNames, n)
	}
	sort.Strings(docNames)
	for _, n := range docNames {
		if _, ok := registered[n]; !ok {
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: readme, Line: documented[n]},
				Analyzer: metricscheckName,
				Message:  fmt.Sprintf("README documents metric %s, which is never registered", n),
			})
		}
	}
	return out
}
