// Package registryname implements the spreadvet analyzer pinning the
// repository's registration convention: every call to RegisterAlgorithm,
// RegisterAdversary, or RegisterScenario
//
//   - executes from an init function (registration is a link-time property
//     of the binary, not something that happens lazily at run time),
//   - names its entry with a string literal in the composite-literal
//     argument (or a literal first argument), so the full catalog is
//     greppable and auditable without executing anything, and
//   - registers each name once per registry within the package.
//
// A name registered in two packages needs no check here: the registries
// panic on a duplicate at init, so every test binary that links both
// packages fails before its first test.
//
// Test files are exempt: tests register throwaway entries under
// deliberately colliding or computed names.
package registryname

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"dynspread/internal/analysis"
)

// Analyzer is the registry analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "registry",
	Doc:  "require Register{Algorithm,Adversary,Scenario} calls to run from init with literal names, each registered once per package",
	Run:  run,
}

// registrars maps the recognized registration entry points to the registry
// ("kind") they populate. Matching is by function name: the testdata
// packages and any future registry package get the same treatment as
// internal/registry and internal/scenario.
var registrars = map[string]string{
	"RegisterAlgorithm": "algorithm",
	"RegisterAdversary": "adversary",
	"RegisterScenario":  "scenario",
}

func run(pass *analysis.Pass) {
	// seen maps each registered (kind, name) to its first registration's
	// position.
	seen := map[[2]string]string{}
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
			kind, ok := registrarKind(pass.TypesInfo, call)
			if !ok {
				return true
			}
			if fn := enclosingFunc(file, call.Pos()); fn == nil || fn.Name.Name != "init" || fn.Recv != nil {
				pass.Reportf(call.Pos(), "%s registration must run from an init function (registration is a property of the build, not of execution order)", kind)
			}
			name, ok := literalName(call)
			if !ok {
				pass.Reportf(call.Pos(), "%s registration must use a string literal name (literal names make the catalog statically auditable)", kind)
				return true
			}
			key := [2]string{kind, name}
			if prev, dup := seen[key]; dup {
				pass.Reportf(call.Pos(), "%s %q already registered at %s", kind, name, prev)
			} else {
				pos := pass.Fset.Position(call.Pos())
				seen[key] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			}
			return true
		})
	}
}

// registrarKind resolves whether call invokes one of the registration
// entry points (directly or package-qualified) and returns its kind.
func registrarKind(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	kind, ok := registrars[id.Name]
	if !ok {
		return "", false
	}
	if _, isFunc := info.Uses[id].(*types.Func); !isFunc {
		return "", false
	}
	return kind, true
}

// literalName extracts the registered name when it is statically evident:
// either a literal first argument, or a `Name: "literal"` field in a
// composite-literal argument.
func literalName(call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	switch arg := call.Args[0].(type) {
	case *ast.BasicLit:
		return unquote(arg)
	case *ast.CompositeLit:
		for _, elt := range arg.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
				if lit, ok := kv.Value.(*ast.BasicLit); ok {
					return unquote(lit)
				}
				return "", false
			}
		}
	}
	return "", false
}

func unquote(lit *ast.BasicLit) (string, bool) {
	s, err := strconv.Unquote(lit.Value)
	if err != nil || s == "" {
		return "", false
	}
	return s, true
}

// enclosingFunc returns the function declaration containing pos, if any.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= pos && pos < fn.End() {
			return fn
		}
	}
	return nil
}
