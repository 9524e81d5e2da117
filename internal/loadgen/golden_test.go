package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate internal/loadgen/testdata/golden from this build")

// goldenCell is one named replay configuration of a golden corpus.
type goldenCell struct {
	name string
	cfg  ReplayConfig
}

// goldenCorpus is one committed trace plus the SHA-256 of its report under
// every cell, and one cell's full report so a digest mismatch has a readable
// diff. Files live under testdata/golden/<name>.*.
type goldenCorpus struct {
	name string
	gen  Config
	// reportCell names the cell whose indented report is committed beside the
	// digests, as <name>.<reportFile>.report.json.
	reportCell, reportFile string
	cells                  []goldenCell
	// check is the per-cell sanity gate: a corpus that stops exercising the
	// regime it was recorded for pins nothing.
	check func(t *testing.T, cell goldenCell, tr *Trace, rep *Report)
	// minDistinct is how many of the cells must produce different reports.
	minDistinct int
}

func (g *goldenCorpus) path(suffix string) string {
	return filepath.Join("testdata", "golden", g.name+suffix)
}

// run replays every cell and compares against (or, under -update,
// regenerates) the committed digests and the full report.
func (g *goldenCorpus) run(t *testing.T) {
	tracePath, digestPath := g.path(".jsonl"), g.path(".sha256.json")
	reportPath := g.path("." + g.reportFile + ".report.json")
	if *updateGolden {
		tr, err := Generate(g.gen)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteFile(tracePath); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSchedule := make(map[string]string), make(map[string]string)
	distinct := make(map[string]bool)
	for _, cell := range g.cells {
		cfg, log := cell.cfg, newScheduleLog()
		cfg.JobListener = log.observe
		rep, err := Replay(tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		g.check(t, cell, tr, rep)
		sum := sha256.Sum256(marshalReport(t, rep))
		got[cell.name] = hex.EncodeToString(sum[:])
		gotSchedule[cell.name] = log.digest()
		distinct[got[cell.name]] = true
		if cell.name != g.reportCell {
			continue
		}
		pretty, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		pretty = append(pretty, '\n')
		if *updateGolden {
			if err := os.WriteFile(reportPath, pretty, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if want, err := os.ReadFile(reportPath); err != nil {
			t.Fatal(err)
		} else if string(want) != string(pretty) {
			t.Errorf("%s: full report differs from %s (diff the file against `-update` output)", cell.name, reportPath)
		}
	}
	if len(distinct) < g.minDistinct {
		t.Fatalf("only %d distinct reports over %d cells: the golden trace does not discriminate them", len(distinct), len(g.cells))
	}
	for _, digests := range []struct {
		path, what string
		got        map[string]string
	}{{digestPath, "report", got}, {g.path(".schedule.sha256.json"), "schedule", gotSchedule}} {
		if *updateGolden {
			b, err := json.MarshalIndent(digests.got, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(digests.path, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want := readDigests(t, digests.path, len(digests.got))
		for cell, sum := range digests.got {
			if want[cell] != sum {
				t.Errorf("%s: %s sha256 %s, golden %s", cell, digests.what, sum, want[cell])
			}
		}
	}
}

// readDigests reads a cell → SHA-256 golden file holding n cells.
func readDigests(t *testing.T, path string, n int) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("%s has %d cells, the corpus %d", path, len(want), n)
	}
	return want
}

// TestGoldenBacklogDigests pins the schedule across commits, not just across
// reruns: one small saturated trace (≈660 jobs on 1 device, ≈5× overloaded,
// per-job deadlines, preemption on) replayed under all 12 order × priority
// combinations must reproduce the committed report SHA-256s byte for byte.
// The digests were recorded from the build that still extracted by linear
// scan, so they are the cross-commit gate for the indexed queue (DESIGN §5,
// INV-Q1). Regenerate only with `go test ./internal/loadgen -run
// TestGoldenBacklogDigests -update`, and name the reason in CHANGES.md.
func TestGoldenBacklogDigests(t *testing.T) { backlogCorpus().run(t) }

// backlogCorpus is TestGoldenBacklogDigests's corpus.
func backlogCorpus() *goldenCorpus {
	g := &goldenCorpus{
		name: "backlog600",
		gen: Config{
			Seed:      14,
			Horizon:   86 * time.Minute,
			Process:   &Poisson{RatePerHour: 420},
			Deadlines: workload.DefaultDeadlines(),
		},
		reportCell: "fair-share/slo-urgency",
		reportFile: "fair-share.slo-urgency",
		check: func(t *testing.T, cell goldenCell, tr *Trace, rep *Report) {
			if rep.Completed != len(tr.Records) || rep.Preemptions == 0 {
				t.Fatalf("%s: completed %d of %d with %d preemptions — the golden trace must drain and must preempt",
					cell.name, rep.Completed, len(tr.Records), rep.Preemptions)
			}
		},
		// fifo×age and fifo×constant may coincide (both are seniority orders
		// until a requeue); a trace on which most cells agree pins nothing.
		minDistinct: 8,
	}
	for _, scheduler := range daemon.Orders.Names() {
		for _, priority := range daemon.Priorities.Names() {
			g.cells = append(g.cells, goldenCell{scheduler + "/" + priority,
				ReplayConfig{Devices: 1, Scheduler: scheduler, Priority: priority, Seed: 1}})
		}
	}
	return g
}

// TestGoldenSteadyDigests is the unsaturated twin of the backlog corpus: a
// ≈300-job Poisson trace on 4 devices (utilisation ≈ 0.45, queues mostly
// empty, a 4-variant program menu per pattern) under the three router presets plus the
// affinity router over an 8-entry program cache. Here the arrival path, the
// router and terminal-record handling do the work and queue order does none —
// the path the arrival cursor and mid-run reclamation changed, which the
// 1-device saturated corpus does not reach. Recorded from the commit before
// those landed. Regenerate only with `-run TestGoldenSteadyDigests -update`.
func TestGoldenSteadyDigests(t *testing.T) { steadyCorpus().run(t) }

// steadyCorpus is TestGoldenSteadyDigests's corpus.
func steadyCorpus() *goldenCorpus {
	return &goldenCorpus{
		name: "steady150",
		gen: Config{
			Seed:      15,
			Horizon:   2 * time.Hour,
			Process:   &Poisson{RatePerHour: 150},
			Programs:  4,
			Deadlines: workload.DefaultDeadlines(),
		},
		reportCell: "affinity+cache8",
		reportFile: "affinity-cache8",
		cells: []goldenCell{
			{"round-robin", ReplayConfig{Devices: 4, Router: "round-robin", Seed: 1}},
			{"least-loaded", ReplayConfig{Devices: 4, Router: "least-loaded", Seed: 1}},
			{"class-affinity", ReplayConfig{Devices: 4, Router: "class-affinity", Seed: 1}},
			{"affinity+cache8", ReplayConfig{Devices: 4, Router: "affinity", ProgramCache: 8, SetupSeconds: 30, Seed: 1}},
		},
		check: func(t *testing.T, cell goldenCell, tr *Trace, rep *Report) {
			if rep.Completed != len(tr.Records) {
				t.Fatalf("%s: completed %d of %d — the golden trace must drain", cell.name, rep.Completed, len(tr.Records))
			}
			if cell.name == "affinity+cache8" && (rep.ProgramCacheHits == 0 || rep.ProgramCacheMisses == 0) {
				t.Fatalf("%s: cache hits %d misses %d — the cache cell must see both", cell.name, rep.ProgramCacheHits, rep.ProgramCacheMisses)
			}
		},
		minDistinct: 4,
	}
}

// TestGoldenBurstyAdmissionDigests pins the admission door and the
// parameterized policy spellings: a ≈300-job bursty trace that saturates 2
// devices inside its bursts, under the four admission policies × {constant,
// edf:production=90s}, plus one cell each for a tuned slo-guard and the fully
// spelled affinity router over an 8-entry program cache. Shed and down-class
// decisions, the fallback-deadline parameter and the scorer weights all reach
// the report bytes here, which neither other corpus exercises. Recorded from
// the commit before the policy constructors moved onto internal/policy.
// Regenerate only with `-run TestGoldenBurstyAdmissionDigests -update`.
func TestGoldenBurstyAdmissionDigests(t *testing.T) { burstyCorpus().run(t) }

// burstyCorpus is TestGoldenBurstyAdmissionDigests's corpus.
func burstyCorpus() *goldenCorpus {
	const tunedGuard, spelledAffinity = "slo-guard:wait=45s:warn=0.7", "affinity:load=0.6:affinity=0.3:cap=0.1"
	g := &goldenCorpus{
		name: "bursty300",
		gen: Config{
			Seed:    16,
			Horizon: 66 * time.Minute,
			Process: &Bursty{BurstRatePerHour: 900, IdleRatePerHour: 30,
				MeanBurst: 8 * time.Minute, MeanIdle: 25 * time.Minute},
			Programs:  4,
			Deadlines: workload.DefaultDeadlines(),
		},
		reportCell: tunedGuard,
		reportFile: "slo-guard-tuned",
		cells: []goldenCell{
			{tunedGuard, ReplayConfig{Devices: 2, Admission: tunedGuard, Seed: 1}},
			{spelledAffinity, ReplayConfig{Devices: 2, Router: spelledAffinity, ProgramCache: 8, Seed: 1}},
		},
		check: func(t *testing.T, cell goldenCell, tr *Trace, rep *Report) {
			if rep.Jobs != len(tr.Records) || rep.Completed+rep.Rejected != rep.Jobs {
				t.Fatalf("%s: %d jobs, %d completed + %d rejected of %d records — the golden trace must drain",
					cell.name, rep.Jobs, rep.Completed, rep.Rejected, len(tr.Records))
			}
			// Parameterized spellings are the policies' Name()s and must reach
			// the report verbatim ("" is the omitted constant default).
			want := cell.cfg
			if want.Router == "" {
				want.Router = "least-loaded"
			}
			if want.Admission == "" {
				want.Admission = "accept-all"
			}
			if rep.Router != want.Router || rep.Admission != want.Admission || rep.Priority != want.Priority {
				t.Fatalf("%s: report names %s/%s/%q, configured %s/%s/%q", cell.name,
					rep.Router, rep.Admission, rep.Priority, want.Router, want.Admission, want.Priority)
			}
			if shedding := want.Admission != "accept-all"; shedding != (rep.Rejected > 0) {
				t.Fatalf("%s: %d rejected — every admission policy but accept-all must shed on this trace", cell.name, rep.Rejected)
			}
			if guard := strings.HasPrefix(want.Admission, "slo-guard"); guard != (rep.Downgraded > 0) {
				t.Fatalf("%s: %d down-classed — slo-guard, and only it, must down-class on this trace", cell.name, rep.Downgraded)
			}
			if cell.cfg.ProgramCache > 0 && (rep.ProgramCacheHits == 0 || rep.ProgramCacheMisses == 0) {
				t.Fatalf("%s: cache hits %d misses %d — the cache cell must see both", cell.name, rep.ProgramCacheHits, rep.ProgramCacheMisses)
			}
		},
		minDistinct: 10,
	}
	for _, adm := range admission.Policies.Names() {
		for _, priority := range []string{"", "edf:production=90s"} {
			name := adm + "/constant"
			if priority != "" {
				name = adm + "/" + priority
			}
			g.cells = append(g.cells, goldenCell{name, ReplayConfig{Devices: 2, Admission: adm, Priority: priority, Seed: 1}})
		}
	}
	return g
}

// TestReplayReaderMatchesGolden: every cell of the three golden corpora,
// replayed by ReplayReader straight from the committed trace file, hashes to
// the committed report digest and schedule digest — the streamed replay is
// the in-memory one, byte for byte and decision for decision, on traces
// recorded long before it existed.
func TestReplayReaderMatchesGolden(t *testing.T) {
	for _, g := range []*goldenCorpus{backlogCorpus(), steadyCorpus(), burstyCorpus()} {
		want := readDigests(t, g.path(".sha256.json"), len(g.cells))
		wantSchedule := readDigests(t, g.path(".schedule.sha256.json"), len(g.cells))
		for _, cell := range g.cells {
			f, err := os.Open(g.path(".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			cfg, log := cell.cfg, newScheduleLog()
			cfg.JobListener = log.observe
			rep, err := ReplayReader(f, cfg)
			f.Close()
			if err != nil {
				t.Fatalf("%s %s: %v", g.name, cell.name, err)
			}
			if sum := sha256.Sum256(marshalReport(t, rep)); hex.EncodeToString(sum[:]) != want[cell.name] {
				t.Errorf("%s %s: streamed report sha256 %x, golden %s", g.name, cell.name, sum, want[cell.name])
			}
			if got := log.digest(); got != wantSchedule[cell.name] {
				t.Errorf("%s %s: streamed schedule sha256 %s, golden %s", g.name, cell.name, got, wantSchedule[cell.name])
			}
		}
	}
}
