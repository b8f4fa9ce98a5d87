// Package analysistest runs an analyzer over golden packages under a
// testdata directory and checks its diagnostics against `// want`
// expectations, in the style of golang.org/x/tools' package of the same
// name (reimplemented here because the repository builds offline, without
// the x/tools module).
//
// A test package lives in testdata/src/<name>/ and is plain Go (not
// _test.go — several analyzers deliberately skip test files). A line that
// should trigger a finding carries a trailing comment
//
//	something.Bad() // want `regexp` `second finding's regexp`
//
// with one back- or double-quoted regexp per expected diagnostic on that
// line. The harness typechecks with the source importer, so testdata may
// import the standard library but must stub anything else locally —
// which keeps fixtures self-contained and forces analyzers to match
// structurally rather than by import path.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dynspread/internal/analysis"
)

// Run analyzes the package dir/testdata/src/<pkg> and compares its
// diagnostics against the `// want` comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	pkgDir := filepath.Join(dir, "testdata", "src", pkg)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	var filenames []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(pkgDir, e.Name()))
		}
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		t.Fatalf("%s: no Go files in %s", pkg, pkgDir)
	}

	fset := token.NewFileSet()
	files, err := analysis.ParseFiles(fset, filenames)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	imp := importer.ForCompiler(fset, "source", nil)
	typed, info, err := analysis.Typecheck(fset, pkg, files, imp, "")
	if err != nil {
		t.Fatalf("%s: typecheck: %v", pkg, err)
	}
	pass := analysis.RunAnalyzers(fset, files, typed, info, []*analysis.Analyzer{a})[0]

	wants := collectWants(t, fset, files)
	for _, d := range pass.Diagnostics() {
		key := posKey{d.Pos.Filename, d.Pos.Line}
		if !matchWant(wants[key], d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re.String())
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// patternRE extracts the quoted patterns of a `// want` comment; both Go
// string syntaxes are accepted.
var patternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants scans every comment for `// want` expectations, keyed by
// the comment's own line (the convention is a trailing comment on the
// offending line).
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*want {
	t.Helper()
	out := map[posKey][]*want{}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := posKey{pos.Filename, pos.Line}
				for _, quoted := range patternRE.FindAllString(rest, -1) {
					var pat string
					if quoted[0] == '`' {
						pat = quoted[1 : len(quoted)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(quoted)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, quoted, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// matchWant marks and returns whether some unmatched expectation on the
// line accepts the message.
func matchWant(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}
