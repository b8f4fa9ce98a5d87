package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		ok        bool
		analyzers []string
		justified bool
	}{
		{"//dynspread:allow hotpath -- buffer is reused", true, []string{"hotpath"}, true},
		{"//dynspread:allow hotpath, spanend -- shared lifetime", true, []string{"hotpath", "spanend"}, true},
		{"//dynspread:allow hotpath", true, []string{"hotpath"}, false},
		{"//dynspread:allow hotpath --", true, []string{"hotpath"}, false},
		{"//dynspread:allow hotpath --   ", true, []string{"hotpath"}, false},
		{"//dynspread:allow", false, nil, false},
		{"//dynspread:allowhotpath", false, nil, false},
		{"//dynspread:hotpath", false, nil, false},
		{"// plain comment", false, nil, false},
	}
	for _, tc := range cases {
		d, ok := parseAllow(tc.text)
		if ok != tc.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if d.justified != tc.justified {
			t.Errorf("parseAllow(%q) justified = %v, want %v", tc.text, d.justified, tc.justified)
		}
		if len(d.analyzers) != len(tc.analyzers) {
			t.Errorf("parseAllow(%q) analyzers = %v, want %v", tc.text, d.analyzers, tc.analyzers)
			continue
		}
		for i := range d.analyzers {
			if d.analyzers[i] != tc.analyzers[i] {
				t.Errorf("parseAllow(%q) analyzers = %v, want %v", tc.text, d.analyzers, tc.analyzers)
				break
			}
		}
	}
}

const suppressionSrc = `package p

func a() {
	//dynspread:allow demo -- fine here
	_ = 1
	_ = 2
	//dynspread:allow other -- wrong analyzer
	_ = 3
	//dynspread:allow demo
	_ = 4
}
`

func TestReportfSuppression(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", suppressionSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{
		Analyzer: &Analyzer{Name: "demo"},
		Fset:     fset,
		Files:    []*ast.File{f},
	}
	file := fset.File(f.Pos())
	for _, line := range []int{5, 6, 8, 10} {
		pass.Reportf(file.LineStart(line), "finding on line %d", line)
	}
	ds := pass.Diagnostics()
	if len(ds) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(ds), ds)
	}
	// Line 5 is suppressed by the justified directive on line 4.
	if ds[0].Pos.Line != 6 || ds[1].Pos.Line != 8 || ds[2].Pos.Line != 10 {
		t.Fatalf("diagnostics on lines %d/%d/%d, want 6/8/10", ds[0].Pos.Line, ds[1].Pos.Line, ds[2].Pos.Line)
	}
	// Line 8's directive names a different analyzer: no addendum.
	if strings.Contains(ds[1].Message, "allow directive present") {
		t.Errorf("line 8 message unexpectedly mentions the allow directive: %s", ds[1].Message)
	}
	// Line 10's directive is unjustified: reported with the addendum.
	if !strings.Contains(ds[2].Message, `allow directive present but has no "-- <justification>"`) {
		t.Errorf("line 10 message lacks the unjustified-allow addendum: %s", ds[2].Message)
	}
}

func TestHasDirective(t *testing.T) {
	mk := func(lines ...string) *ast.CommentGroup {
		cg := &ast.CommentGroup{}
		for _, l := range lines {
			cg.List = append(cg.List, &ast.Comment{Text: l})
		}
		return cg
	}
	if HasDirective(nil, HotpathDirective) {
		t.Error("nil doc should carry no directive")
	}
	if !HasDirective(mk("// Foo does things.", "//", "//dynspread:hotpath"), HotpathDirective) {
		t.Error("trailing directive line not detected")
	}
	if !HasDirective(mk("//dynspread:hotpath with a trailing note"), HotpathDirective) {
		t.Error("directive with trailing text not detected")
	}
	if HasDirective(mk("//dynspread:hotpathy"), HotpathDirective) {
		t.Error("prefix collision wrongly detected")
	}
}
