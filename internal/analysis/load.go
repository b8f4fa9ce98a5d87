package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// ParseFiles parses the named Go source files with comments retained (the
// suppression and annotation directives live in comments).
func ParseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Typecheck typechecks one parsed package under the given importer and
// returns its types.Package plus a fully populated types.Info. goVersion
// may be empty (language default).
func Typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		// Sizes of the host platform are fine: no analyzer in the suite is
		// layout-sensitive.
	}
	pkg, err := cfg.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return pkg, info, nil
}

// RunAnalyzers executes each analyzer over one typechecked package and
// returns the per-analyzer passes, which carry the diagnostics.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []*Pass {
	passes := make([]*Pass, 0, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		a.Run(pass)
		passes = append(passes, pass)
	}
	return passes
}
