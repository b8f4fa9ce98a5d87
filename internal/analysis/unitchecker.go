package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool` unit-checker protocol (the
// same contract golang.org/x/tools/go/analysis/unitchecker fulfills, from
// cmd/go/internal/work's side):
//
//   - `tool -V=full` prints "<arg0> version devel ... buildID=<hash>" so the
//     go command can key its vet-result cache on the tool binary.
//   - `tool -flags` prints a JSON description of the tool's flags so the go
//     command knows which command-line flags it may forward: none.
//   - `tool <unit>.cfg` analyzes one compilation unit described by the JSON
//     config the go command wrote: source files, the import map, and
//     export-data files for every dependency.
//
// Diagnostics go to stderr as "file:line:col: analyzer: message" and the
// exit status is 2 when there are findings — `go vet` turns that into a
// failed build step. The go command also runs the tool over every
// dependency of a vetted package (standard library included) as a VetxOnly
// unit, for facts this tool does not keep: such a unit only gets the empty
// vetx file the go command may expect, so it costs nothing.

// vetConfig holds the fields of cmd/go/internal/work.vetConfig (the JSON
// the go command hands a vet tool) that this tool reads.
type vetConfig struct {
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
	GoVersion   string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point of a multichecker binary. It never returns.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	flags := flag.NewFlagSet(progname, flag.ExitOnError)
	printFlags := flags.Bool("flags", false, "print the tool's flags in JSON (used by the go command)")
	version := flags.String("V", "", "print version information ('full' is the go command's cache-key probe)")
	flags.Usage = func() {
		fmt.Fprintf(os.Stderr, "%s is a multichecker for this repository's invariants; run it via\n\n\tgo vet -vettool=$(command -v %s) ./...\n\nAnalyzers:\n\n", progname, progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "%s: %s\n\n", a.Name, a.Doc)
		}
	}
	flags.Parse(os.Args[1:])

	if *version != "" {
		if *version != "full" {
			fmt.Fprintf(os.Stderr, "%s: unsupported flag value -V=%s\n", progname, *version)
			os.Exit(2)
		}
		printVersion()
		os.Exit(0)
	}
	if *printFlags {
		fmt.Println("[]")
		os.Exit(0)
	}

	args := flags.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "%s: expected one <unit>.cfg argument (this tool is run by `go vet -vettool`, not directly)\n", progname)
		os.Exit(2)
	}
	os.Exit(runUnit(args[0], analyzers, os.Stderr))
}

// printVersion emulates the output the go command's toolID probe expects:
// at least three fields, "version" second, and — for a "devel" version — a
// trailing buildID derived from the binary contents, so rebuilding the tool
// invalidates cached vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", os.Args[0], h.Sum(nil)[:16])
}

// runUnit analyzes one compilation unit and returns the process exit code.
func runUnit(cfgPath string, analyzers []*Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "spreadvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "spreadvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Every unit leaves the empty vetx file the go command may expect.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "spreadvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, err := ParseFiles(fset, cfg.GoFiles)
	var pkg *types.Package
	var info *types.Info
	if err == nil {
		pkg, info, err = Typecheck(fset, cfg.ImportPath, files, newUnitImporter(fset, &cfg), cfg.GoVersion)
	}
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "spreadvet: %v\n", err)
		return 1
	}

	passes := RunAnalyzers(fset, files, pkg, info, analyzers)
	exit := 0
	cwd, _ := os.Getwd()
	for _, pass := range passes {
		for _, d := range pass.Diagnostics() {
			fmt.Fprintf(stderr, "%s: %s: %s\n", relPosition(d.Pos, cwd), pass.Analyzer.Name, d.Message)
			exit = 2
		}
	}
	return exit
}

// relPosition renders a position with the filename relative to dir when
// that is shorter — `go vet` runs the tool from the package directory, so
// diagnostics read like the compiler's.
func relPosition(pos token.Position, dir string) string {
	if dir != "" {
		if rel, err := filepath.Rel(dir, pos.Filename); err == nil && len(rel) < len(pos.Filename) {
			pos.Filename = rel
		}
	}
	return pos.String()
}

// newUnitImporter builds a types.Importer that resolves imports through the
// unit config: source-level import paths map through cfg.ImportMap to
// canonical package paths, whose compiler export data the go command listed
// in cfg.PackageFile.
func newUnitImporter(fset *token.FileSet, cfg *vetConfig) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q in unit config", path)
		}
		return os.Open(file)
	}
	return &unitImporter{cfg: cfg, under: importer.ForCompiler(fset, "gc", lookup)}
}

type unitImporter struct {
	cfg   *vetConfig
	under types.Importer
}

func (ui *unitImporter) Import(path string) (*types.Package, error) {
	if canon, ok := ui.cfg.ImportMap[path]; ok {
		path = canon
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ui.under.Import(path)
}
