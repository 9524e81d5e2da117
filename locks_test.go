package hpcqc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lockReasons is every sync.Mutex and sync.RWMutex the non-test code under
// internal/ and cmd/ declares, each with the reason it is not inside a world
// (DESIGN §5 "One owner"). A lock is named by its package directory and what
// declares it: Type.field for a struct field, the variable for a package-level
// variable, Func.name for a local.
var lockReasons = map[string]string{
	"internal/simclock.Clock.mu":        "the world's lock: each entry from outside and each clock event takes it",
	"internal/daemon.Client.mu":         "the HTTP client is the edge, shared by its caller's goroutines, outside the world it talks to",
	"internal/daemon.progMu":            "process-wide decode memo that every daemon and sweep worker shares",
	"internal/qir.validMu":              "process-wide verdict memo that every daemon and sweep worker shares",
	"internal/loadgen.programCache.mu":  "process-wide payload memo that replays and sweep workers share",
	"internal/qrmi.EmulatorResource.mu": "an emulator resource runs on no clock, so it has no world to join",
}

// TestLocksAreListed holds ROADMAP item 19's rule that nothing inside a world
// keeps a lock of its own: it parses every non-test file under internal/ and
// cmd/ and fails on a sync.Mutex or sync.RWMutex that lockReasons does not
// list, and on a listed lock that is gone.
func TestLocksAreListed(t *testing.T) {
	found := map[string]string{} // lock → where it is declared
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for name, pos := range locksIn(f) {
				found[filepath.ToSlash(filepath.Dir(path))+"."+name] = fset.Position(pos).String()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range sortedKeys(found) {
		if _, ok := lockReasons[name]; !ok {
			t.Errorf("%s: %s is not in lockReasons: move what it guards inside a world, or list it with the reason it stays", found[name], name)
		}
	}
	for _, name := range sortedKeys(lockReasons) {
		if _, ok := found[name]; !ok {
			t.Errorf("lockReasons lists %s, which is gone: drop its line", name)
		}
	}
}

// locksIn names the sync.Mutex and sync.RWMutex values f declares, each with
// its position.
func locksIn(f *ast.File) map[string]token.Pos {
	sync := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"sync"` {
			sync = "sync"
			if imp.Name != nil {
				sync = imp.Name.Name
			}
		}
	}
	locks := map[string]token.Pos{}
	if sync == "" {
		return locks
	}
	isLock := func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == sync && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
	}
	holdsLock := func(e ast.Expr) (found bool) {
		ast.Inspect(e, func(n ast.Node) bool {
			found = found || isLock(n)
			return !found
		})
		return found
	}
	// walk names each lock under n after owner, the declaration holding it.
	walk := func(owner string, n ast.Node) {
		name := func(id string) string {
			if owner == "" {
				return id
			}
			return owner + "." + id
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if !holdsLock(n.Type) {
					return true
				}
				if len(n.Names) == 0 { // embedded
					locks[name(types.ExprString(n.Type))] = n.Pos()
				}
				for _, id := range n.Names {
					locks[name(id.Name)] = id.Pos()
				}
				return false
			case *ast.ValueSpec:
				if n.Type == nil || !holdsLock(n.Type) {
					return true
				}
				for _, id := range n.Names {
					locks[name(id.Name)] = id.Pos()
				}
				return false
			case ast.Expr:
				if isLock(n) { // a lock made in an expression: new(sync.Mutex)
					locks[owner] = n.Pos()
					return false
				}
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			owner := decl.Name.Name
			if decl.Recv != nil && len(decl.Recv.List) == 1 {
				owner = strings.TrimLeft(types.ExprString(decl.Recv.List[0].Type), "*") + "." + owner
			}
			walk(owner, decl)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					walk(ts.Name.Name, ts.Type)
				} else {
					walk("", spec)
				}
			}
		}
	}
	return locks
}
