package analysis

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// funcReporter reports every function declaration, so any package with one
// has a finding.
var funcReporter = &Analyzer{
	Name: "demo",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fn.Pos(), "found %s", fn.Name.Name)
				}
			}
		}
	},
}

// TestRunUnit drives the unit checker the way `go vet -vettool` does: one
// config file per compilation unit, here a one-file package without imports.
func TestRunUnit(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		cfg    vetConfig
		exit   int
		stderr string // regexp; "" wants no output at all
	}{
		{
			name:   "root unit with a finding",
			src:    "package p\n\nfunc f() {}\n",
			exit:   2,
			stderr: `^\S*p\.go:3:1: demo: found f\n$`,
		},
		{
			name: "VetxOnly unit",
			src:  "package p\n\nfunc f() {}\n",
			cfg:  vetConfig{VetxOnly: true},
		},
		{
			name: "type error under SucceedOnTypecheckFailure",
			src:  "package p\n\nfunc f() { undefined() }\n",
			cfg:  vetConfig{SucceedOnTypecheckFailure: true},
		},
		{
			name:   "type error",
			src:    "package p\n\nfunc f() { undefined() }\n",
			exit:   1,
			stderr: `undefined`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join(dir, "p.go")
			if err := os.WriteFile(src, []byte(tc.src), 0o666); err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.ImportPath = "p"
			cfg.GoFiles = []string{src}
			cfg.VetxOutput = filepath.Join(dir, "vet.out")
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfgPath := filepath.Join(dir, "p.cfg")
			if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
				t.Fatal(err)
			}

			var stderr bytes.Buffer
			if exit := runUnit(cfgPath, []*Analyzer{funcReporter}, &stderr); exit != tc.exit {
				t.Errorf("exit %d, want %d (stderr %q)", exit, tc.exit, stderr.String())
			}
			if tc.stderr == "" && stderr.Len() != 0 {
				t.Errorf("stderr %q, want nothing", stderr.String())
			}
			if tc.stderr != "" && !regexp.MustCompile(tc.stderr).MatchString(stderr.String()) {
				t.Errorf("stderr %q does not match %q", stderr.String(), tc.stderr)
			}
			if vetx, err := os.ReadFile(cfg.VetxOutput); err != nil || len(vetx) != 0 {
				t.Errorf("vetx file: %d bytes, err %v; want an empty file", len(vetx), err)
			}
		})
	}
}
