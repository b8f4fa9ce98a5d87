// Package hotpath implements the spreadvet analyzer enforcing the
// repository's zero-allocation round-path contract at the source level.
//
// A function opts in by carrying the //dynspread:hotpath directive in its
// doc comment. Inside an annotated function the analyzer reports every
// construct that allocates (or is overwhelmingly likely to) on the steady
// round path:
//
//   - map composite literals and map makes (the round path is map-free by
//     PR 6's contract: flat arrays and bitsets only)
//   - writes through a map index (hash+bucket work and possible growth)
//   - append calls (backing-array growth); appends into buffers that are
//     retained across rounds are the legitimate amortized exception and
//     carry a //dynspread:allow hotpath -- ... justification
//   - calls into fmt and reflect (interface boxing, reflection, scratch
//     allocations)
//   - function literals that capture variables (the closure and its
//     captures escape to the heap)
//   - conversions of concrete values to interface types, explicit or at a
//     call boundary (boxing)
//
// Constructs inside a return statement are exempt: on the round path a
// return that builds an error leaves the hot loop for good (the engine
// aborts the run), so `return fmt.Errorf(...)` is the sanctioned way to
// fail out of an annotated function.
//
// The analyzer is the static complement of the runtime gates in
// alloc_gate_test.go: the gates prove zero steady-state allocations for the
// configurations they run; the annotation pins the property on every build
// of every annotated function, including branches no gate exercises.
package hotpath

import (
	"go/ast"
	"go/types"

	"dynspread/internal/analysis"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "report allocating constructs (maps, append growth, boxing, fmt/reflect, capturing closures) inside //dynspread:hotpath functions",
	Run:  run,
}

// bannedPkgs are packages whose every call allocates or reflects.
var bannedPkgs = map[string]bool{"fmt": true, "reflect": true}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.HasDirective(fn.Doc, analysis.HotpathDirective) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	analysis.WalkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if _, ok := typeUnder(info, n).(*types.Map); ok && !analysis.InsideReturn(stack) {
				pass.Reportf(n.Pos(), "map literal allocates in hot-path function %s", fn.Name.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportMapWrite(pass, info, lhs, fn)
			}
		case *ast.IncDecStmt:
			reportMapWrite(pass, info, n.X, fn)
		case *ast.FuncLit:
			if capt := captured(info, n, fn); capt != "" {
				pass.Reportf(n.Pos(), "closure captures %s and escapes in hot-path function %s", capt, fn.Name.Name)
			}
		case *ast.CallExpr:
			checkCall(pass, n, stack, fn)
		}
		return true
	})
}

// reportMapWrite flags assignments (and ++/--) through a map index.
func reportMapWrite(pass *analysis.Pass, info *types.Info, lhs ast.Expr, fn *ast.FuncDecl) {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	if _, ok := typeUnder(info, idx.X).(*types.Map); ok {
		pass.Reportf(lhs.Pos(), "map write in hot-path function %s (hash + possible growth per round; use a flat array or bitset)", fn.Name.Name)
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	inReturn := analysis.InsideReturn(stack)

	// Type conversion to an interface: T(x) with T interface, x concrete.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(info, call.Args[0]) && !inReturn {
			pass.Reportf(call.Pos(), "conversion boxes a concrete value into %s in hot-path function %s", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), fn.Name.Name)
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := info.Uses[fun].(*types.Builtin); ok {
			checkBuiltin(pass, call, obj.Name(), inReturn, fn)
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkg, ok := info.Uses[id].(*types.PkgName); ok && bannedPkgs[pkg.Imported().Name()] {
				if !inReturn {
					pass.Reportf(call.Pos(), "call to %s.%s allocates in hot-path function %s", pkg.Imported().Name(), fun.Sel.Name, fn.Name.Name)
				}
				return // don't double-report its boxed arguments
			}
		}
	}

	if inReturn {
		return
	}
	// Implicit boxing at the call boundary: a concrete argument passed for
	// an interface parameter.
	sig, ok := typeUnder(info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && isConcrete(info, arg) {
			pass.Reportf(arg.Pos(), "argument boxes a concrete value into %s in hot-path function %s", types.TypeString(pt, types.RelativeTo(pass.Pkg)), fn.Name.Name)
		}
	}
}

func checkBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string, inReturn bool, fn *ast.FuncDecl) {
	switch name {
	case "append":
		if !inReturn {
			pass.Reportf(call.Pos(), "append may grow its backing array in hot-path function %s", fn.Name.Name)
		}
	case "make":
		if len(call.Args) > 0 {
			if _, ok := typeUnder(pass.TypesInfo, call.Args[0]).(*types.Map); ok && !inReturn {
				pass.Reportf(call.Pos(), "make(map) allocates in hot-path function %s", fn.Name.Name)
			}
		}
	}
}

// captured returns the name of a variable the function literal captures
// from the enclosing function, or "" if it captures nothing. A
// non-capturing literal compiles to a static function value and is allowed.
func captured(info *types.Info, lit *ast.FuncLit, fn *ast.FuncDecl) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// A capture is a variable declared inside the enclosing function but
		// outside the literal itself (package-level variables need no heap
		// cell; the literal's own locals and parameters are not captures).
		if v.Pos() >= fn.Pos() && v.Pos() < fn.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

func typeUnder(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// isConcrete reports whether e has a concrete (non-interface, non-nil)
// type — the precondition for a conversion to an interface to allocate.
func isConcrete(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || tv.Value != nil {
		// Untyped nil never boxes; untyped constants box but are almost
		// always cold configuration — and flagging them would indict every
		// call like span.SetAttr("key", ...) whose parameter is a plain
		// string. Constants of interface-incompatible use don't arise here.
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if ok && basic.Info()&types.IsUntyped != 0 {
			return false
		}
	}
	return !types.IsInterface(tv.Type)
}
