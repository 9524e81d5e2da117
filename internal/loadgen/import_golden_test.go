package loadgen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestImportGolden pins both importers byte for byte on fixtures that take
// every branch of their shared tail: out-of-order submits (sort), more usable
// jobs than --max-jobs (cap after sort, renumber), a -1 run time and a zero
// Elapsed (fallbacks), sub-step and unusable rows (skips), --scale 0.01
// (shots rounding and the one-shot floor). The goldens were recorded from the
// commit before the importers were given one tail; regenerate only with
// `-run TestImportGolden -update` and name the reason in CHANGES.md.
func TestImportGolden(t *testing.T) {
	opts := ImportOptions{ServiceScale: 0.01, MaxJobs: 7}
	for _, format := range []string{"swf", "sacct"} {
		tr, err := ImportFile(filepath.Join("testdata", "import", "fixture."+format), format, opts)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var got bytes.Buffer
		if err := tr.Write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", "import_"+format+".jsonl")
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s import differs from %s:\n%s", format, path, got.Bytes())
		}
	}
}
