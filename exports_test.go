package dynspread_test

// TestNoTestOnlyExports keeps code that only tests call out of internal/:
// every exported identifier there needs a reference from a non-test file of
// this module or of bench/. It type-checks both modules with go/types, so a
// dead method is caught even when a live method of another type shares its
// name. A method also counts as used when its receiver implements a named
// interface that declares it, because a caller can reach it through that
// interface (sort.Interface, json.Marshaler, error).

import (
	"errors"
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dynspread/internal/analysis"
)

// testOnlyExports lists the exported identifiers in internal/ that only
// tests call, each with the reason it stays.
var testOnlyExports = map[string]string{
	"dynspread/internal/analysis/analysistest.Run":             "the analyzers' shared test harness; a _test.go file cannot be imported",
	"dynspread/internal/graph.(*Graph).Validate":               "the invariant oracle of the graph, adversary and trace tests",
	"dynspread/internal/graph.(*Graph).Equal":                  "the equality oracle of the graph, adversary and trace tests",
	"dynspread/internal/token.(*Assignment).RequiredLearnings": "the oracle for Metrics.Learnings in the sim tests, and the exact tokens = learnings check",
	"dynspread/internal/graph.Cycle":                           "a topology fixture of the sim, core, walk and adversary tests",
	"dynspread/internal/graph.Star":                            "a topology fixture of the sim and core tests",
	"dynspread/internal/graph.Complete":                        "a topology fixture of the sim and core tests",
	"dynspread/internal/trace.(*GraphTrace).NumRounds":         "the trace length the root golden-scenario and trace fuzz tests and the trace tests check",
}

func TestNoTestOnlyExports(t *testing.T) {
	l, err := loadModules(".")
	if err != nil {
		t.Fatal(err)
	}

	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range p.info.Selections {
			used[origin(sel.Obj())] = true
		}
	}
	ifaces := namedInterfaces(l)

	type candidate struct {
		obj  types.Object
		used bool
	}
	cands := map[string]candidate{}
	for path, p := range l.pkgs {
		if !strings.Contains(path, "/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			cands[exportKey(obj)] = candidate{obj, used[obj]}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() {
					cands[exportKey(m)] = candidate{m, used[m] || satisfies(named, m.Name(), ifaces)}
				}
			}
		}
	}

	var problems []string
	for key, c := range cands {
		if _, allowed := testOnlyExports[key]; !allowed && !c.used {
			problems = append(problems, fmt.Sprintf("%s: %s has no caller outside _test.go files", l.fset.Position(c.obj.Pos()), key))
		}
	}
	for key := range testOnlyExports {
		if c, ok := cands[key]; !ok {
			problems = append(problems, fmt.Sprintf("testOnlyExports entry %s names no exported identifier in internal/", key))
		} else if c.used {
			problems = append(problems, fmt.Sprintf("testOnlyExports entry %s has a non-test caller now; remove the entry", key))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// loadedPackage is one type-checked non-test package.
type loadedPackage struct {
	pkg  *types.Package
	info *types.Info
}

// moduleLoader type-checks the non-test packages of every module under one
// root on demand, in dependency order, and imports everything else
// (the standard library) from compiled export data.
type moduleLoader struct {
	fset  *token.FileSet
	files map[string][]string // import path -> non-test files
	pkgs  map[string]*loadedPackage
	std   types.Importer
}

// loadModules type-checks every package of every module under root: the
// files that go/build selects for this platform, outside testdata/ and
// hidden or underscore directories (which holds .bench_build/).
func loadModules(root string) (*moduleLoader, error) {
	l := &moduleLoader{
		fset:  token.NewFileSet(),
		files: map[string][]string{},
		pkgs:  map[string]*loadedPackage{},
		std:   importer.Default(),
	}
	paths := map[string]string{} // directory -> import path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		path, err := modulePath(filepath.Join(dir, "go.mod"))
		if errors.Is(err, fs.ErrNotExist) && dir != root {
			path, err = paths[filepath.Dir(dir)]+"/"+d.Name(), nil
		}
		if err != nil {
			return err
		}
		paths[dir] = path
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		for _, f := range bp.GoFiles {
			l.files[path] = append(l.files[path], filepath.Join(dir, f))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range l.files {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	if p := l.pkgs[path]; p != nil {
		return p.pkg, nil
	}
	parsed, err := analysis.ParseFiles(l.fset, files)
	if err != nil {
		return nil, err
	}
	pkg, info, err := analysis.Typecheck(l.fset, path, parsed, l, "")
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = &loadedPackage{pkg, info}
	return pkg, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// namedInterfaces returns error and every non-generic named interface with
// methods that a loaded package declares or imports.
func namedInterfaces(l *moduleLoader) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	add := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range l.pkgs {
		add(p.pkg)
		for _, imp := range p.pkg.Imports() {
			add(imp)
		}
	}
	return ifaces
}

// satisfies reports whether *named implements one of ifaces that declares
// a method called name.
func satisfies(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportKey names obj as "pkgpath.Name", "pkgpath.T.Method" or
// "pkgpath.(*T).Method".
func exportKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			if p, ok := recv.Type().(*types.Pointer); ok {
				return fmt.Sprintf("%s.(*%s).%s", obj.Pkg().Path(), p.Elem().(*types.Named).Obj().Name(), obj.Name())
			}
			return fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), recv.Type().(*types.Named).Obj().Name(), obj.Name())
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
