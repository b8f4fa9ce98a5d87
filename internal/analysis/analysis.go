// Package analysis is a dependency-free (stdlib-only) static-analysis
// framework in the spirit of golang.org/x/tools/go/analysis, sized to what
// this repository needs: it defines the Analyzer/Pass/Diagnostic vocabulary,
// typechecks one package at a time, and speaks the `go vet -vettool`
// unit-checker protocol so a multichecker binary (cmd/spreadvet) plugs
// straight into `go vet` and CI. Every analyzer sees one package alone. A
// name registered or created in two packages is caught where it already
// fails: the registries panic at init in any test binary that links both
// packages, and obs.Registry panics when a second metric family takes a
// name on the registry that cmd/spreadd's test assembles.
//
// The suite mechanizes the conventions PRs 4-8 established by review and
// runtime gate alone:
//
//	hotpath    functions annotated //dynspread:hotpath may not allocate via
//	           map literals/writes, append growth, interface boxing,
//	           fmt/reflect calls, or capturing closures — the static
//	           complement of alloc_gate_test.go's runtime gates
//	registry   RegisterAlgorithm/RegisterAdversary/RegisterScenario calls
//	           sit in init functions, use literal names, and are
//	           duplicate-free within the package
//	spanend    every tracing span started reaches End on all control-flow
//	           paths, and //dynspread:nilsafe types keep their exported
//	           methods nil-receiver-safe
//	wiretag    exported wire-schema fields carry JSON tags and numeric
//	           fields are bounds-checked by the matching Validate
//	metricname obs metric names are literal, Prometheus-conventional, and
//	           collision-free within the package
//
// A finding the reviewer decides to accept is suppressed IN CODE, never in
// configuration: the line (or the line above it) carries
//
//	//dynspread:allow <analyzer>[,<analyzer>...] -- <justification>
//
// and the justification is mandatory — an allow directive without one is
// itself reported. The directive is how intentional amortized allocations
// (reused append buffers that the runtime alloc gates pin at zero
// steady-state) coexist with a strict analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives
	// (lowercase, no spaces).
	Name string
	// Doc is a one-paragraph description, shown by cmd/spreadvet -help.
	Doc string
	// Run executes the check and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
	allows      map[string]map[int][]allowDirective // file -> line -> directives
}

// A Diagnostic is one finding, bound to a source position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

type allowDirective struct {
	analyzers []string
	justified bool
	pos       token.Position
}

// allowPrefix introduces a suppression directive; the justification follows
// " -- ".
const allowPrefix = "//dynspread:allow"

// Reportf records a finding at pos unless a justified allow directive for
// this analyzer covers the line (or the line above). An allow directive
// without a justification does not suppress — it is called out instead, so
// silencing a finding always costs a written-down reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if d, ok := p.allowAt(position); ok {
		if d.justified {
			return
		}
		p.diagnostics = append(p.diagnostics, Diagnostic{
			Pos: position,
			Message: fmt.Sprintf(format, args...) +
				" (allow directive present but has no \"-- <justification>\"; findings may only be suppressed with a reason)",
		})
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: position, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far, in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diagnostics, func(i, j int) bool {
		a, b := p.diagnostics[i].Pos, p.diagnostics[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diagnostics
}

func (p *Pass) allowAt(pos token.Position) (allowDirective, bool) {
	if p.allows == nil {
		p.allows = map[string]map[int][]allowDirective{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					d.pos = cp
					byLine := p.allows[cp.Filename]
					if byLine == nil {
						byLine = map[int][]allowDirective{}
						p.allows[cp.Filename] = byLine
					}
					byLine[cp.Line] = append(byLine[cp.Line], d)
				}
			}
		}
	}
	byLine := p.allows[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			for _, name := range d.analyzers {
				if name == p.Analyzer.Name {
					return d, true
				}
			}
		}
	}
	return allowDirective{}, false
}

// parseAllow parses "//dynspread:allow name1,name2 -- justification".
func parseAllow(text string) (allowDirective, bool) {
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return allowDirective{}, false
	}
	names, why, justified := strings.Cut(rest, "--")
	d := allowDirective{justified: justified && strings.TrimSpace(why) != ""}
	for _, name := range strings.Split(names, ",") {
		if name = strings.TrimSpace(name); name != "" {
			d.analyzers = append(d.analyzers, name)
		}
	}
	return d, len(d.analyzers) > 0
}

// HotpathDirective is the annotation (in a function's doc comment) that
// opts the function into the hotpath analyzer's allocation contract.
const HotpathDirective = "//dynspread:hotpath"

// NilsafeDirective is the annotation (in a type's doc comment) that makes
// the spanend analyzer enforce nil-receiver safety on the type's exported
// pointer-receiver methods.
const NilsafeDirective = "//dynspread:nilsafe"

// HasDirective reports whether doc contains directive as its own comment
// line (optionally followed by explanatory text after a space).
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
