package hpcqc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedSurface holds DESIGN's surface rule: every exported name under
// internal/ has a caller in a non-test file of this module or of benchmark/,
// or a line in testdata/surface.allow giving the reason it stays. A name is
// a package-level func, type, var or const, or a method of a named type; a
// method that implements an interface method (of this module, of the
// standard library, or the universe error) is reached through that
// interface. The list cannot rot: a listed name that gains a caller or is
// gone fails too. `make surface` prints what the list holds.
func TestExportedSurface(t *testing.T) {
	allow := readAllowList(t, filepath.Join("testdata", "surface.allow"))
	names := exportedNames(t)

	for _, name := range sortedKeys(names) {
		if names[name] {
			continue
		}
		reason, ok := allow[name]
		if !ok {
			t.Errorf("%s has no caller outside tests: delete it, move it into its package's export_test.go, or list it in testdata/surface.allow with a reason", name)
			continue
		}
		t.Logf("%-44s %s", name, reason)
	}
	for _, name := range sortedKeys(allow) {
		if reached, exists := names[name]; !exists {
			t.Errorf("testdata/surface.allow lists %s, which is not an exported name under internal/: drop its line", name)
		} else if reached {
			t.Errorf("testdata/surface.allow lists %s, which has a caller outside tests: drop its line", name)
		}
	}
}

// readAllowList reads `name  reason` lines; blank lines and # comments are
// skipped, and a name without a reason is an error.
func readAllowList(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// exportedNames type-checks the non-test files of this module and of
// benchmark/ and maps every exported name declared under internal/ to
// whether a non-test file reaches it.
func exportedNames(t *testing.T) map[string]bool {
	// cgo files change no exported name, and leaving them out spares the
	// source importer a C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	for _, pkg := range append(listModule(t, "."), listModule(t, "benchmark")...) {
		if checked[pkg.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(pkg.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", pkg.ImportPath, err)
		}
		checked[pkg.ImportPath] = p
	}

	reached := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		reached[obj] = true
	}

	ifaces := interfacesByMethod(checked)
	names := map[string]bool{}
	for path, p := range checked {
		rel, ok := strings.CutPrefix(path, "hpcqc/internal/")
		if !ok {
			continue
		}
		for _, id := range p.Scope().Names() {
			obj := p.Scope().Lookup(id)
			if obj.Exported() {
				names[rel+"."+id] = reached[obj]
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					names[rel+"."+id+"."+m.Name()] = reached[m] || implementsAny(named, ifaces[m.Name()])
				}
			}
		}
	}
	return names
}

// implementsAny reports whether t or *t implements one of ifaces.
func implementsAny(t types.Type, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes by method name every non-generic interface type
// declared at package level in the checked packages and in the standard
// library packages they import, plus the universe error.
func interfacesByMethod(checked map[string]*types.Package) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !isType || !ok || named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := named.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, id := range p.Scope().Names() {
			add(p.Scope().Lookup(id))
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return byMethod
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// listModule lists the packages of the module rooted at dir, dependencies
// first, leaving out the standard library (the source importer reads that).
func listModule(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			err = fmt.Errorf("%v: %s", err, exit.Stderr)
		}
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
