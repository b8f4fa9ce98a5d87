// Package spanend implements the spreadvet analyzer for the tracing
// plane's two structural invariants.
//
// # Every started span reaches End
//
// A span minted by Tracer.Start (recognized structurally: a method named
// Start* whose results include a *Span) must be terminated on every
// control-flow path, or the started/ended self-metrics drift and the trace
// waterfall renders half-open bars. The analyzer tracks spans assigned to
// local variables and accepts, in decreasing order of preference:
//
//   - a defer of span.End()/span.EndErr(...) (or a deferred closure calling
//     one) anywhere in the function — defers run on every exit;
//   - an End/EndErr on every path from the Start to every function exit,
//     computed over the statement structure (if/else, switch, select);
//   - escape: a span stored into a struct field, passed to a function,
//     captured by a closure, or returned has an owner elsewhere that is
//     responsible for ending it (the service's job spans end in retire(),
//     for example), so local path analysis does not apply.
//
// Discarding a span result with `_` is always reported.
//
// Because every Span method is nil-safe by contract, `if span != nil`
// guards are treated as transparent: the implicit else-path of such a
// guard counts as ended (a nil span needs no End).
//
// # Nil-safety of //dynspread:nilsafe types
//
// Types annotated //dynspread:nilsafe in their doc comment promise that a
// nil receiver is a no-op on every exported method — the property that
// lets call sites thread tracing unconditionally. For each exported
// pointer-receiver method of an annotated type the analyzer requires
// either a leading `if recv == nil { return ... }` guard or a body that
// never touches receiver state directly (method-only delegation, like
// EndErr forwarding to SetAttr and End).
package spanend

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dynspread/internal/analysis"
)

// Analyzer is the spanend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "require every tracing span to reach End on all control-flow paths and //dynspread:nilsafe types to stay nil-receiver-safe",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		nilsafe := nilsafeTypes(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSpans(pass, fn.Name.Name, fn.Body)
			checkNilsafe(pass, fn, nilsafe)
		}
		// Each function literal is its own scope: a span started inside a
		// closure must End within that closure's control flow.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkSpans(pass, "function literal", lit.Body)
			}
			return true
		})
	}
}

// ---- span lifetime ----

// spanResult returns the index of the *Span result of a Start* method
// call, or -1 if call is not a span-starting call.
func spanResult(info *types.Info, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Start") {
		return -1
	}
	if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
		return -1
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isSpanPtr(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

func isSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

// checkSpans analyzes one function scope (a declaration's or literal's
// body). Nested literals are pruned: each is analyzed as its own scope, so
// every Start assignment is checked exactly once, against its innermost
// enclosing function.
func checkSpans(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		idx := spanResult(info, call)
		if idx < 0 || idx >= len(assign.Lhs) {
			return true
		}
		lhs := assign.Lhs[idx]
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return true // field/index destination: owner-managed lifetime
		}
		if id.Name == "_" {
			pass.Reportf(assign.Pos(), "span is discarded: the started span can never reach End")
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		analyzeSpanVar(pass, name, body, assign, obj)
		return true
	})
}

// analyzeSpanVar checks that the span held in obj (assigned at assign)
// reaches End on all paths out of the scope.
func analyzeSpanVar(pass *analysis.Pass, name string, body *ast.BlockStmt, assign *ast.AssignStmt, obj types.Object) {
	w := &walker{pass: pass, body: body, name: name, obj: obj, assign: assign}
	if w.escapes() || w.hasDeferredEnd() {
		return
	}
	chain := blockChain(body, assign)
	if chain == nil {
		// Assignment in an unsupported position (e.g. inside a statement the
		// chain walk does not model); stay silent rather than guess.
		return
	}
	ended := false
	for level := len(chain) - 1; level >= 0; level-- {
		fr := chain[level]
		if w.gaveUp {
			return
		}
		ended = w.walk(fr.stmts[fr.index+1:], ended)
		if ended || w.terminated {
			return
		}
		if fr.loop && level > 0 {
			// The span is re-minted every iteration: it must be ended within
			// the loop body, not after the loop.
			pass.Reportf(assign.Pos(), "span started inside a loop does not reach End within the iteration")
			return
		}
	}
	if !ended && !w.terminated {
		pass.Reportf(assign.Pos(), "span does not reach End on the fall-through path out of %s", name)
	}
}

// frame is one level of the statement-list chain from the function body
// down to the statement containing the Start assignment.
type frame struct {
	stmts []ast.Stmt
	index int  // position of the chain's next-inner statement in stmts
	loop  bool // stmts is the body of a for/range statement
}

// blockChain returns the chain of statement lists from fn's body down to
// the one directly containing target, outermost first.
func blockChain(body *ast.BlockStmt, target ast.Stmt) []frame {
	var search func(stmts []ast.Stmt, loop bool) []frame
	search = func(stmts []ast.Stmt, loop bool) []frame {
		for i, s := range stmts {
			if s == target {
				return []frame{{stmts: stmts, index: i, loop: loop}}
			}
			var sub []frame
			switch s := s.(type) {
			case *ast.BlockStmt:
				sub = search(s.List, false)
			case *ast.IfStmt:
				if s.Init == target {
					return []frame{{stmts: stmts, index: i, loop: loop}}
				}
				sub = search(s.Body.List, false)
				if sub == nil {
					if blk, ok := s.Else.(*ast.BlockStmt); ok {
						sub = search(blk.List, false)
					} else if s.Else != nil {
						sub = search([]ast.Stmt{s.Else}, false)
					}
				}
			case *ast.ForStmt:
				sub = search(s.Body.List, true)
			case *ast.RangeStmt:
				sub = search(s.Body.List, true)
			case *ast.SwitchStmt:
				sub = searchCases(s.Body.List, search)
			case *ast.TypeSwitchStmt:
				sub = searchCases(s.Body.List, search)
			case *ast.SelectStmt:
				sub = searchCases(s.Body.List, search)
			case *ast.LabeledStmt:
				sub = search([]ast.Stmt{s.Stmt}, false)
			}
			if sub != nil {
				return append(sub, frame{stmts: stmts, index: i, loop: loop})
			}
		}
		return nil
	}
	chain := search(body.List, false)
	if chain == nil {
		return nil
	}
	// Reverse to outermost-first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

func searchCases(clauses []ast.Stmt, search func([]ast.Stmt, bool) []frame) []frame {
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		if sub := search(body, false); sub != nil {
			return sub
		}
	}
	return nil
}

type walker struct {
	pass       *analysis.Pass
	body       *ast.BlockStmt // the function scope being analyzed
	name       string         // scope name for diagnostics
	obj        types.Object
	assign     *ast.AssignStmt
	terminated bool // the walked path returned (with End) or panicked
	gaveUp     bool // control flow beyond the model (goto); stay silent
}

// isSpanIdent reports whether e is the tracked span variable.
func (w *walker) isSpanIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && (w.pass.TypesInfo.Uses[id] == w.obj || w.pass.TypesInfo.Defs[id] == w.obj)
}

// isEndCall reports whether e is span.End(...) or span.EndErr(...).
func (w *walker) isEndCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "EndErr") {
		return false
	}
	return w.isSpanIdent(sel.X)
}

// escapes reports whether the span variable's lifetime leaves the
// function's local control flow: stored, passed, captured, or returned.
func (w *walker) escapes() bool {
	escaped := false
	analysis.WalkStack(w.body, func(n ast.Node, stack []ast.Node) bool {
		if escaped {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if w.isEndCall(n) {
				return true
			}
			for _, arg := range n.Args {
				if w.isSpanIdent(arg) {
					escaped = true
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && w.isSpanIdent(id) {
					escaped = true
				}
				return !escaped
			})
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if w.isSpanIdent(res) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			// span on the RHS of any assignment aliases it away; a non-ident
			// LHS receiving the Start result was skipped before this point.
			for _, rhs := range n.Rhs {
				if w.isSpanIdent(rhs) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if w.isSpanIdent(elt) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if w.isSpanIdent(n.Value) {
				escaped = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && w.isSpanIdent(n.X) {
				escaped = true
			}
		}
		return !escaped
	})
	return escaped
}

// hasDeferredEnd reports whether the function defers an End of the span,
// directly or through a closure.
func (w *walker) hasDeferredEnd() bool {
	found := false
	ast.Inspect(w.body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return !found
		}
		if w.isEndCall(d.Call) {
			found = true
			return false
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && w.isEndCall(call) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// walk interprets a statement list, returning whether the span is
// definitely ended after it. It reports returns reached with the span
// still open and sets w.terminated when the list exits the function on
// every path it models.
func (w *walker) walk(stmts []ast.Stmt, ended bool) bool {
	for _, s := range stmts {
		if w.terminated || w.gaveUp {
			return ended
		}
		switch s := s.(type) {
		case *ast.ExprStmt:
			if w.isEndCall(s.X) {
				ended = true
			} else if isPanicLike(w.pass.TypesInfo, s.X) {
				w.terminated = true
				return ended
			}
		case *ast.ReturnStmt:
			if !ended {
				w.pass.Reportf(s.Pos(), "return leaves span (started at %s) without End", w.pass.Fset.Position(w.assign.Pos()))
			}
			w.terminated = true
			return ended
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if w.isSpanIdent(lhs) && !ended {
					pos := w.pass.Fset.Position(w.assign.Pos())
					w.pass.Reportf(s.Pos(), "span (started at %s) is overwritten without End", pos)
					ended = true // don't cascade further reports for the old span
				}
			}
		case *ast.BlockStmt:
			ended = w.walk(s.List, ended)
		case *ast.IfStmt:
			ended = w.walkIf(s, ended)
		case *ast.SwitchStmt:
			ended = w.walkCases(s.Body.List, ended, hasDefault(s.Body.List))
		case *ast.TypeSwitchStmt:
			ended = w.walkCases(s.Body.List, ended, hasDefault(s.Body.List))
		case *ast.SelectStmt:
			ended = w.walkCases(s.Body.List, ended, true)
		case *ast.ForStmt:
			w.walkLoop(s.Body.List, ended)
		case *ast.RangeStmt:
			w.walkLoop(s.Body.List, ended)
		case *ast.LabeledStmt:
			ended = w.walk([]ast.Stmt{s.Stmt}, ended)
		case *ast.BranchStmt:
			if s.Tok == token.GOTO {
				w.gaveUp = true
			}
			// break/continue: leave this branch without a verdict; the
			// enclosing construct's conservative merge covers it.
			return ended
		case *ast.DeferStmt, *ast.GoStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
			// No effect on the span lifetime (deferred Ends were handled
			// before path analysis started).
		}
	}
	return ended
}

// walkIf merges the two branches of an if. A branch "covers" the span if
// it ends it or exits the function (having been checked for leaks on the
// way). `if span != nil { ... }` with no else treats the implicit else as
// covered: a nil span needs no End.
func (w *walker) walkIf(s *ast.IfStmt, ended bool) bool {
	bodyCovers := w.branchCovers(s.Body.List, ended)
	elseCovers := false
	switch e := s.Else.(type) {
	case nil:
		elseCovers = ended || w.nilGuardExcuses(s.Cond)
	case *ast.BlockStmt:
		elseCovers = w.branchCovers(e.List, ended)
	default: // else if
		elseCovers = w.branchCovers([]ast.Stmt{e}, ended)
	}
	return ended || (bodyCovers && elseCovers)
}

// branchCovers walks one branch in a sub-walker and reports whether the
// span is ended or the branch exits the function.
func (w *walker) branchCovers(stmts []ast.Stmt, ended bool) bool {
	sub := &walker{pass: w.pass, body: w.body, name: w.name, obj: w.obj, assign: w.assign}
	e := sub.walk(stmts, ended)
	if sub.gaveUp {
		w.gaveUp = true
	}
	return e || sub.terminated
}

func (w *walker) walkCases(clauses []ast.Stmt, ended bool, exhaustive bool) bool {
	all := true
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		if !w.branchCovers(body, ended) {
			all = false
		}
	}
	return ended || (all && exhaustive && len(clauses) > 0)
}

// walkLoop checks a loop body for leaky returns; End inside a loop body
// proves nothing for the code after the loop (zero iterations).
func (w *walker) walkLoop(stmts []ast.Stmt, ended bool) {
	sub := &walker{pass: w.pass, body: w.body, name: w.name, obj: w.obj, assign: w.assign}
	sub.walk(stmts, ended)
	if sub.gaveUp {
		w.gaveUp = true
	}
}

// nilGuardExcuses reports whether cond is `span != nil` (the implicit
// else-path then holds a nil span, which needs no End).
func (w *walker) nilGuardExcuses(cond ast.Expr) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	return (w.isSpanIdent(bin.X) && isNilIdent(bin.Y)) || (w.isSpanIdent(bin.Y) && isNilIdent(bin.X))
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func hasDefault(clauses []ast.Stmt) bool {
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isPanicLike reports whether e is a call that never returns: panic, or a
// Fatal*/Exit method or function.
func isPanicLike(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok && fun.Name == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return strings.HasPrefix(name, "Fatal") || name == "Exit" || name == "Goexit"
	}
	return false
}

// ---- nil-safety of annotated types ----

// nilsafeTypes collects the names of types in file annotated
// //dynspread:nilsafe.
func nilsafeTypes(pass *analysis.Pass, file *ast.File) map[string]bool {
	out := map[string]bool{}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			doc := ts.Doc
			if doc == nil {
				doc = gd.Doc
			}
			if analysis.HasDirective(doc, analysis.NilsafeDirective) {
				out[ts.Name.Name] = true
			}
		}
	}
	return out
}

func checkNilsafe(pass *analysis.Pass, fn *ast.FuncDecl, nilsafe map[string]bool) {
	if len(nilsafe) == 0 || fn.Recv == nil || len(fn.Recv.List) != 1 || !fn.Name.IsExported() {
		return
	}
	recvField := fn.Recv.List[0]
	star, ok := recvField.Type.(*ast.StarExpr)
	if !ok {
		return // value receivers can't be nil
	}
	base, ok := star.X.(*ast.Ident)
	if !ok || !nilsafe[base.Name] {
		return
	}
	if len(recvField.Names) == 0 {
		return // receiver unused; trivially nil-safe
	}
	recv := pass.TypesInfo.Defs[recvField.Names[0]]
	if recv == nil {
		return
	}
	if hasLeadingNilGuard(pass.TypesInfo, fn, recv) {
		return
	}
	// No guard: the body must never touch receiver state directly (pure
	// delegation to other nil-safe methods is fine).
	var bad ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					bad = n
				}
			}
		case *ast.StarExpr:
			if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				bad = n
			}
		}
		return bad == nil
	})
	if bad != nil {
		pass.Reportf(bad.Pos(), "method %s.%s of nilsafe type dereferences its receiver without a leading nil guard", base.Name, fn.Name.Name)
	}
}

// hasLeadingNilGuard reports whether fn's first statement is
// `if recv == nil { ... }` with a body that leaves the function.
func hasLeadingNilGuard(info *types.Info, fn *ast.FuncDecl, recv types.Object) bool {
	if len(fn.Body.List) == 0 {
		return false
	}
	ifs, ok := fn.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return false
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.Uses[id] == recv
	}
	if !(isRecv(bin.X) && isNilIdent(bin.Y)) && !(isRecv(bin.Y) && isNilIdent(bin.X)) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	_, ret := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt)
	return ret
}
