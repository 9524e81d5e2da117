package loadgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/daemon"
)

// smallTrace is a 2-hour trace shared by the replay tests.
func smallTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(Config{Seed: 21, Horizon: 2 * time.Hour, Process: &Poisson{RatePerHour: 120}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func marshalReport(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayDeterministic is the core replay guarantee: same trace + same
// seed ⇒ bit-identical SLO reports (and therefore identical schedule
// decisions) across runs.
func TestReplayDeterministic(t *testing.T) {
	tr := smallTrace(t)
	r1, err := Replay(tr, ReplayConfig{Devices: 2, Seed: 4, Router: "least-loaded", Scheduler: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(tr, ReplayConfig{Devices: 2, Seed: 4, Router: "least-loaded", Scheduler: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, r1), marshalReport(t, r2)) {
		t.Fatal("identical replays produced different reports")
	}
	if r1.Jobs != len(tr.Records) || r1.SubmitErrors != 0 {
		t.Fatalf("replay accepted %d/%d jobs, %d submit errors", r1.Jobs, len(tr.Records), r1.SubmitErrors)
	}
	if r1.Completed+r1.Failed+r1.Cancelled != r1.Jobs {
		t.Fatalf("terminal accounting broken: %+v", r1)
	}
	if r1.Completed == 0 {
		t.Fatal("no jobs completed")
	}
	for _, class := range []string{"production", "test", "dev"} {
		c := r1.PerClass[class]
		if c == nil || c.Jobs == 0 {
			t.Fatalf("class %s missing from report", class)
		}
		if c.WaitSeconds.P50 > c.WaitSeconds.P99 {
			t.Fatalf("class %s wait quantiles not monotone: %+v", class, c.WaitSeconds)
		}
	}
	if len(r1.PerDevice) != 2 {
		t.Fatalf("per-device report has %d partitions, want 2", len(r1.PerDevice))
	}
	for id, dv := range r1.PerDevice {
		if dv.Utilization <= 0 || dv.Utilization > 1 {
			t.Fatalf("partition %s utilization = %g", id, dv.Utilization)
		}
	}
}

// TestReplaySeedMatters: a different seed perturbs calibration drift and
// session tokens but the schedule is dominated by the trace; the report must
// still be valid. (Bit-identity is only promised for identical seeds.)
func TestReplaySeedMatters(t *testing.T) {
	tr := smallTrace(t)
	if _, err := Replay(tr, ReplayConfig{Devices: 2, Seed: 99}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayProductionBeatsDev: priority scheduling must show up in the SLOs —
// production p95 wait at or below dev p95 wait under every scheduler.
func TestReplayProductionBeatsDev(t *testing.T) {
	tr := smallTrace(t)
	for _, sched := range daemon.Orders.Names() {
		rep, err := Replay(tr, ReplayConfig{Devices: 2, Seed: 4, Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		prod, dev := rep.PerClass["production"], rep.PerClass["dev"]
		if prod.WaitSeconds.P95 > dev.WaitSeconds.P95 {
			t.Fatalf("%s: production p95 wait %g > dev %g", sched, prod.WaitSeconds.P95, dev.WaitSeconds.P95)
		}
	}
}

// TestSweepMatrixDeterministic runs a reduced 2×2 matrix twice and demands
// byte-identical sweep reports.
func TestSweepMatrixDeterministic(t *testing.T) {
	tr := smallTrace(t)
	cfg := SweepConfig{
		Devices:    2,
		Seed:       4,
		Routers:    []string{"round-robin", "least-loaded"},
		Schedulers: []string{"fifo", "shortest-first"},
		Admissions: []string{"accept-all"},
	}
	s1, err := Sweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Sweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, s1), marshalReport(t, s2)) {
		t.Fatal("identical sweeps produced different reports")
	}
	if len(s1.Results) != 4 {
		t.Fatalf("2×2 sweep produced %d results", len(s1.Results))
	}
	// Axis order is router-major.
	if s1.Results[0].Router != "round-robin" || s1.Results[0].Scheduler != "fifo" ||
		s1.Results[3].Router != "least-loaded" || s1.Results[3].Scheduler != "shortest-first" {
		t.Fatalf("sweep order wrong: %s/%s … %s/%s",
			s1.Results[0].Router, s1.Results[0].Scheduler, s1.Results[3].Router, s1.Results[3].Scheduler)
	}
}

// TestSweepRejectsBadPolicy fails fast on a bad axis entry.
func TestSweepRejectsBadPolicy(t *testing.T) {
	tr := smallTrace(t)
	if _, err := Sweep(tr, SweepConfig{Schedulers: []string{"lifo"}}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := Replay(tr, ReplayConfig{Router: "warp"}); err == nil {
		t.Fatal("unknown router accepted")
	}
	// Only 0 means the default fleet; a negative one is refused before any
	// replay, not quietly run on four partitions.
	const noFleet = "device: fleet needs at least 1 partition, got -3"
	if _, err := Replay(tr, ReplayConfig{Devices: -3}); err == nil || !strings.HasSuffix(err.Error(), noFleet) {
		t.Fatalf("fleet of -3: %v", err)
	}
	if _, err := Sweep(tr, SweepConfig{Devices: -2}); err == nil || !strings.Contains(err.Error(), "fleet size -2") {
		t.Fatalf("sweep fleet of -2: %v", err)
	}
	if _, err := GenerateClosedLoop(ClosedLoopConfig{Devices: -3, Horizon: time.Hour}); err == nil || !strings.HasSuffix(err.Error(), noFleet) {
		t.Fatalf("closed-loop fleet of -3: %v", err)
	}
}

// TestClosedLoopCapture generates a closed-loop trace by live capture and
// replays it: the recorded arrivals must be deterministic, non-empty and
// bounded by the user pool's one-in-flight discipline.
func TestClosedLoopCapture(t *testing.T) {
	cfg := ClosedLoopConfig{Seed: 8, Horizon: 2 * time.Hour, Users: 6, ThinkMean: 2 * time.Minute, Devices: 2}
	tr1, err := GenerateClosedLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := GenerateClosedLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := tr1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("closed-loop capture not deterministic")
	}
	if tr1.Header.Mode != "recorded" {
		t.Fatalf("closed-loop mode = %q", tr1.Header.Mode)
	}
	if len(tr1.Records) < cfg.Users {
		t.Fatalf("captured only %d arrivals from %d users", len(tr1.Records), cfg.Users)
	}
	// Each user keeps one job in flight: arrivals cannot exceed
	// horizon/service-floor per user; sanity-bound at 2h / 1s each.
	if len(tr1.Records) > cfg.Users*7200 {
		t.Fatalf("captured %d arrivals, closed loop violated", len(tr1.Records))
	}
	rep, err := Replay(tr1, ReplayConfig{Devices: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("closed-loop trace replay completed nothing")
	}
}

// TestSweepFullMatrix24h is the acceptance-scale run: a 24-hour, thousands-
// of-jobs open-loop trace swept across the full 3×3 policy matrix,
// deterministically. Skipped in -short (the tier-1 fast gate); `make
// test-full` runs it.
func TestSweepFullMatrix24h(t *testing.T) {
	if testing.Short() {
		t.Skip("24h matrix sweep is a test-full experiment")
	}
	tr, err := Generate(Config{Seed: 1, Horizon: 24 * time.Hour, Process: &Poisson{RatePerHour: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 2000 {
		t.Fatalf("24h trace has only %d jobs", len(tr.Records))
	}
	start := time.Now()
	s1, err := Sweep(tr, SweepConfig{Devices: 4, Seed: 1, Admissions: []string{"accept-all"}})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("full-matrix sweep took %s, want < 30s", elapsed)
	}
	if len(s1.Results) != 9 {
		t.Fatalf("full matrix produced %d results", len(s1.Results))
	}
	s2, err := Sweep(tr, SweepConfig{Devices: 4, Seed: 1, Admissions: []string{"accept-all"}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, s1), marshalReport(t, s2)) {
		t.Fatal("full-matrix sweep not deterministic")
	}
	for _, rep := range s1.Results {
		if rep.Completed == 0 {
			t.Fatalf("%s/%s completed nothing", rep.Router, rep.Scheduler)
		}
	}
}
