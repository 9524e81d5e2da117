package sched

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestImportsOnlyStandardLibrary pins the package boundary: sched is the
// serving queue and its vocabulary, a leaf the daemon, the load generator and
// benchmark/ build on. An import of another hpcqc package (or any module) in
// a non-test file means a second world is growing back in here — the
// hybrid-job simulator lives in internal/hybrid for that reason.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			// A standard-library path has no dot in its first element and is
			// not under this module.
			if first, _, _ := strings.Cut(path, "/"); first == "hpcqc" || strings.Contains(first, ".") {
				t.Errorf("%s imports %q: internal/sched takes only the standard library", f.Name(), path)
			}
		}
	}
}
