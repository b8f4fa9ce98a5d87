// Package wiretag implements the spreadvet analyzer for the wire plane's
// serialization contract.
//
// Packages named "wire" define the JSON vocabulary clients and operators
// speak to the service. Two properties keep that vocabulary coherent:
//
//   - Every exported struct field carries an explicit `json:"..."` tag with
//     a lower_snake_case name (or an explicit `json:"-"` opt-out). Relying
//     on Go's default field-name marshalling silently couples the API to Go
//     identifier spelling, and a later rename becomes a wire break nobody
//     reviews.
//
//   - For structs that define a Validate method, every exported numeric or
//     numeric-slice field must be mentioned inside that method. Bounds
//     checking is the wire package's whole job; a numeric field that
//     Validate never looks at is almost always a field added after the
//     method was written. Non-numeric fields (strings, structs, booleans)
//     are exempt: their zero values are semantically valid defaults.
//
// A field whose unbounded range is intentional carries a
// //dynspread:allow wiretag -- <why any value is valid> justification.
package wiretag

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"

	"dynspread/internal/analysis"
)

// Analyzer is the wiretag analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "wiretag",
	Doc:  "require exported wire struct fields to carry snake_case json tags and numeric fields to be bounds-checked in Validate",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if pass.Pkg.Name() != "wire" {
		return
	}
	validates := collectValidates(pass)
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				checkStruct(pass, ts.Name.Name, st, validates[ts.Name.Name])
			}
		}
	}
}

func checkStruct(pass *analysis.Pass, typeName string, st *ast.StructType, validate *ast.FuncDecl) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !name.IsExported() {
				continue
			}
			checkTag(pass, typeName, name, field)
			if validate != nil && isNumeric(pass.TypesInfo.TypeOf(field.Type)) {
				if !mentions(pass, validate, name.Name) {
					pass.Reportf(name.Pos(), "numeric field %s.%s is never referenced in %s.Validate (bounds-check it or justify the unbounded range)", typeName, name.Name, typeName)
				}
			}
		}
		// Embedded fields inherit their own type's tags; nothing to check here.
	}
}

func checkTag(pass *analysis.Pass, typeName string, name *ast.Ident, field *ast.Field) {
	if field.Tag == nil {
		pass.Reportf(name.Pos(), "exported wire field %s.%s has no json tag (default marshalling couples the wire format to the Go identifier)", typeName, name.Name)
		return
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return // the compiler rejects malformed tags before vet runs
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		pass.Reportf(name.Pos(), "exported wire field %s.%s has no json tag (default marshalling couples the wire format to the Go identifier)", typeName, name.Name)
		return
	}
	jsonName, _, _ := strings.Cut(tag, ",")
	if jsonName == "-" {
		return // explicit opt-out
	}
	if jsonName == "" || !snakeCase(jsonName) {
		pass.Reportf(name.Pos(), "json tag %q on %s.%s is not lower_snake_case", jsonName, typeName, name.Name)
	}
}

func snakeCase(s string) bool {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_') {
			return false
		}
	}
	return s[0] != '_'
}

// isNumeric reports whether t is an integer/float type or a slice of one —
// the field classes Validate is expected to bounds-check.
func isNumeric(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsInteger|types.IsFloat) != 0
	case *types.Slice:
		return isNumeric(u.Elem())
	}
	return false
}

// collectValidates maps receiver type name -> its Validate method decl.
func collectValidates(pass *analysis.Pass) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "Validate" || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			t := fn.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok {
				out[id.Name] = fn
			}
		}
	}
	return out
}

// mentions reports whether the Validate method body references the field by
// selecting it off any expression (s.Field) — the loosest reading that
// still proves the method knows the field exists.
func mentions(pass *analysis.Pass, validate *ast.FuncDecl, field string) bool {
	if validate.Body == nil {
		return false
	}
	found := false
	ast.Inspect(validate.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
			found = true
		}
		return !found
	})
	return found
}
