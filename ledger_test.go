package hpcqc

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsNamesItsTests holds EXPERIMENTS.md to its ledger rule: every
// `## h-` entry carries a **Status:** line and names at least one Test… or
// Benchmark… that exists in the tree, so a deleted or renamed test cannot
// leave an entry citing nothing.
func TestExperimentsNamesItsTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defined := definedTests(t)
	cited := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9]\w*`)
	entries := strings.Split("\n"+string(doc), "\n## ")[1:]
	n := 0
	for _, entry := range entries {
		title, body, _ := strings.Cut(entry, "\n")
		if !strings.HasPrefix(title, "h-") {
			continue
		}
		n++
		name, _, _ := strings.Cut(title, ":")
		if !strings.Contains(body, "\n**Status:") {
			t.Errorf("%s has no **Status:** line", name)
		}
		var names []string
		for _, c := range cited.FindAllString(body, -1) {
			if defined[c] {
				names = append(names, c)
			}
		}
		if len(names) == 0 {
			t.Errorf("%s names no Test or Benchmark that exists in the tree (cites %q)", name, cited.FindAllString(body, -1))
		}
	}
	if n == 0 {
		t.Fatal("EXPERIMENTS.md has no ## h- entries")
	}
}

// definedTests lists the Test and Benchmark functions declared in this
// module's and benchmark/'s test files.
func definedTests(t *testing.T) map[string]bool {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return defined
}
