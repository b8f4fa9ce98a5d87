// Package metricname implements the spreadvet analyzer for the
// observability plane's metric-naming conventions.
//
// Every metric created through an obs Registry (Counter, Gauge, Histogram,
// their *Func and *Vec variants) must:
//
//   - name itself with a string literal — the metrics catalog is a static
//     property of the binary, greppable and documentable without running
//     anything (the same philosophy as the registry analyzer);
//   - follow Prometheus conventions: lower_snake_case, a known namespace
//     prefix (dynspread_, process_, or go_), counters ending in _total,
//     and histograms ending in a unit suffix (_seconds or _bytes);
//   - be created once within the package. The runtime registry panics on
//     a duplicate; this analyzer moves that discovery to vet time for the
//     names one package creates. Names two packages create on one registry
//     collide where that registry is assembled, and the test that builds
//     it panics.
//
// Matching is structural: any method of the listed names on a type named
// Registry is treated as a metric constructor, so the testdata fixtures
// and any future second registry get the same scrutiny as internal/obs.
package metricname

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"dynspread/internal/analysis"
)

// Analyzer is the metricname analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "require obs metric names to be literal, Prometheus-conventional, and created once per package",
	Run:  run,
}

// constructors maps obs Registry method names to the metric kind they
// create, which determines the required suffix.
var constructors = map[string]string{
	"Counter":      "counter",
	"CounterFunc":  "counter",
	"CounterVec":   "counter",
	"Gauge":        "gauge",
	"GaugeFunc":    "gauge",
	"GaugeVec":     "gauge",
	"Histogram":    "histogram",
	"HistogramVec": "histogram",
}

// namespaces are the accepted metric name prefixes: the module's own
// namespace plus the two conventional runtime namespaces obs/process.go
// exports for compatibility with standard dashboards.
var namespaces = []string{"dynspread_", "process_", "go_"}

func run(pass *analysis.Pass) {
	// seen maps each created name to the position of its first creation.
	seen := map[string]string{}
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := constructorKind(pass.TypesInfo, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				pass.Reportf(call.Args[0].Pos(), "metric name must be a string literal (the metrics catalog is a static property of the binary)")
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			checkConventions(pass, lit, name, kind)
			if prev, dup := seen[name]; dup {
				pass.Reportf(lit.Pos(), "metric %q already created at %s (the runtime registry will panic on the duplicate)", name, prev)
			} else {
				pos := pass.Fset.Position(call.Pos())
				seen[name] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			}
			return true
		})
	}
}

func checkConventions(pass *analysis.Pass, lit *ast.BasicLit, name, kind string) {
	if !snakeCase(name) {
		pass.Reportf(lit.Pos(), "metric name %q is not lower_snake_case", name)
		return
	}
	hasNS := false
	for _, ns := range namespaces {
		if strings.HasPrefix(name, ns) {
			hasNS = true
			break
		}
	}
	if !hasNS {
		pass.Reportf(lit.Pos(), "metric name %q lacks a namespace prefix (expected one of %s)", name, strings.Join(namespaces, ", "))
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "counter %q must end in _total (Prometheus counter convention)", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			pass.Reportf(lit.Pos(), "histogram %q must end in a unit suffix (_seconds or _bytes)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(lit.Pos(), "gauge %q must not end in _total (that suffix marks counters)", name)
		}
	}
}

func snakeCase(s string) bool {
	if s == "" || s[0] == '_' {
		return false
	}
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_') {
			return false
		}
	}
	return true
}

// constructorKind resolves whether call is reg.<Constructor>(...) on a
// value whose type is (a pointer to) a type named Registry.
func constructorKind(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	kind, ok := constructors[sel.Sel.Name]
	if !ok {
		return "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return "", false
	}
	return kind, true
}
