package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpcqc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate internal/loadgen/testdata/golden from this build")

const (
	goldenTrace   = "testdata/golden/backlog600.jsonl"
	goldenDigests = "testdata/golden/backlog600.sha256.json"
	// goldenReportCell is the one combination whose full report is committed
	// beside the digests, so a digest mismatch has a readable diff.
	goldenReportCell = "fair-share/slo-urgency"
	goldenReport     = "testdata/golden/backlog600.fair-share.slo-urgency.report.json"
)

// TestGoldenBacklogDigests pins the schedule across commits, not just across
// reruns: one small saturated trace (≈660 jobs on 1 device, ≈5× overloaded,
// per-job deadlines, preemption on) replayed under all 12 order × priority
// combinations must reproduce the committed report SHA-256s byte for byte.
// The digests were recorded from the build that still extracted by linear
// scan, so they are the cross-commit gate for the indexed queue (DESIGN §5,
// INV-Q1). Regenerate only with `go test ./internal/loadgen -run
// TestGoldenBacklogDigests -update`, and name the reason in CHANGES.md.
func TestGoldenBacklogDigests(t *testing.T) {
	if *updateGolden {
		tr, err := Generate(Config{
			Seed:      14,
			Horizon:   86 * time.Minute,
			Process:   &Poisson{RatePerHour: 420},
			Deadlines: workload.DefaultDeadlines(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTrace), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteFile(goldenTrace); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := ReadTraceFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	distinct := make(map[string]bool)
	for _, scheduler := range AllSchedulers() {
		for _, priority := range AllPriorities() {
			rep, err := Replay(tr, ReplayConfig{Devices: 1, Scheduler: scheduler, Priority: priority, Seed: 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", scheduler, priority, err)
			}
			if rep.Completed != len(tr.Records) || rep.Preemptions == 0 {
				t.Fatalf("%s/%s: completed %d of %d with %d preemptions — the golden trace must drain and must preempt",
					scheduler, priority, rep.Completed, len(tr.Records), rep.Preemptions)
			}
			cell := scheduler + "/" + priority
			b := marshalReport(t, rep)
			sum := sha256.Sum256(b)
			got[cell] = hex.EncodeToString(sum[:])
			distinct[got[cell]] = true
			if cell != goldenReportCell {
				continue
			}
			pretty, err := json.MarshalIndent(rep, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			pretty = append(pretty, '\n')
			if *updateGolden {
				if err := os.WriteFile(goldenReport, pretty, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if want, err := os.ReadFile(goldenReport); err != nil {
				t.Fatal(err)
			} else if string(want) != string(pretty) {
				t.Errorf("%s: full report differs from %s (diff the file against `-update` output)", cell, goldenReport)
			}
		}
	}
	// fifo×age and fifo×constant may coincide (both are seniority orders
	// until a requeue); a trace on which most cells agree pins nothing.
	if len(distinct) < 8 {
		t.Fatalf("only %d distinct reports over 12 combinations: the golden trace does not discriminate the orders", len(distinct))
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cells, this build replays %d", len(want), len(got))
	}
	for cell, sum := range got {
		if want[cell] != sum {
			t.Errorf("%s: report sha256 %s, golden %s", cell, sum, want[cell])
		}
	}
}
