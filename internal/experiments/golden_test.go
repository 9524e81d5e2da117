package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate internal/experiments/testdata/scheduling.golden from this build")

// TestSchedulingTablesGolden pins the scheduling tables hpcsim prints at seed
// 42 — E1 (Table 1), A2, A5, A8 and A9 — byte for byte. None of them has a
// wall-clock column, so any difference is a scheduling change. Regenerate
// only with `-run TestSchedulingTablesGolden -update`, and name the cells that
// moved and why in EXPERIMENTS.md.
func TestSchedulingTablesGolden(t *testing.T) {
	const seed = 42
	var sb strings.Builder
	for _, run := range []func(int64) (*Table, error){
		func(s int64) (*Table, error) { _, t, err := RunTable1(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunShotRateSweep(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunPreemption(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunDurationHints(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunFairShare(s); return t, err },
	} {
		table, err := run(seed)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(table.String())
	}

	path := filepath.Join("testdata", "scheduling.golden")
	got := sb.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("scheduling tables differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
