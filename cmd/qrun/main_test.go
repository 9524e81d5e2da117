package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hpcqc/internal/qir"
)

func TestDemoPrograms(t *testing.T) {
	for _, name := range []string{"bell", "pipulse", "adiabatic"} {
		p, err := demoProgram(name, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Shots != 50 {
			t.Fatalf("%s: shots = %d", name, p.Shots)
		}
		if err := p.Validate(nil); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
	}
	if _, err := demoProgram("nonsense", 10); err == nil {
		t.Fatal("unknown demo accepted")
	}
}

func TestRunDemoOnLocalEmulator(t *testing.T) {
	if err := run("local-sv", "", "bell", 20, 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunProgramFile(t *testing.T) {
	p, _ := demoProgram("pipulse", 10)
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("local-sv", "", "", 0, 2, []string{path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	// The catalogue is a map; the error lists it in sorted order, the same
	// text on every run.
	err := run("ghost", "", "bell", 10, 1, nil)
	want := `core: unknown resource "ghost" (profiles: hpc-mps, hpc-mps-large, local-sv, mock-qpu, qpu-digital, qpu-onprem)`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown resource: err = %v, want %s", err, want)
	}
	if err := run("local-sv", "", "", 10, 1, nil); err == nil {
		t.Fatal("missing program accepted")
	}
	if err := run("local-sv", "", "", 10, 1, []string{"/does/not/exist.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if err := run("local-sv", "", "", 10, 1, []string{bad}); err == nil {
		t.Fatal("bad file accepted")
	}
}

func TestPrintResultHandlesManyOutcomes(t *testing.T) {
	counts := make(qir.Counts)
	for i := 0; i < 30; i++ {
		counts[bitstringOf(i)] = i + 1
	}
	printResult(&qir.Result{Counts: counts, Metadata: map[string]string{"backend": "x"}})
}

func bitstringOf(i int) string {
	b := make([]byte, 5)
	for q := 0; q < 5; q++ {
		if (i>>uint(q))&1 == 1 {
			b[q] = '1'
		} else {
			b[q] = '0'
		}
	}
	return string(b)
}
