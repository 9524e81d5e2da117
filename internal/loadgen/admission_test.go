package loadgen

import (
	"bytes"
	"testing"
	"time"

	"hpcqc/internal/admission"
)

// burstyTrace is the campaign-style overload trace the admission tests run
// against: 24 hours of Markov-modulated on/off arrivals.
func burstyTrace(t *testing.T, seed int64, horizon time.Duration) *Trace {
	t.Helper()
	proc, err := NewProcess("bursty", 150)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(Config{Seed: seed, Horizon: horizon, Process: proc})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayWithSheddingDeterministic: admission decisions are part of the
// replay's pure function of (trace, config) — same trace + seed ⇒
// byte-identical reports, with every admission policy.
func TestReplayWithSheddingDeterministic(t *testing.T) {
	tr := burstyTrace(t, 5, 2*time.Hour)
	for _, adm := range admission.Policies.Names() {
		cfg := ReplayConfig{Devices: 2, Seed: 4, Admission: adm}
		r1, err := Replay(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Replay(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, r1), marshalReport(t, r2)) {
			t.Fatalf("%s: identical replays produced different reports", adm)
		}
		if r1.Admission != adm {
			t.Fatalf("report admission = %q, want %q", r1.Admission, adm)
		}
		// Terminal accounting holds with rejections as first-class outcomes.
		if r1.Completed+r1.Failed+r1.Cancelled+r1.Rejected != r1.Jobs {
			t.Fatalf("%s: terminal accounting broken: %+v", adm, r1)
		}
		if r1.SubmitErrors != 0 {
			t.Fatalf("%s: shed submissions leaked into submit errors: %d", adm, r1.SubmitErrors)
		}
		// Production is never shed by any policy.
		if p := r1.PerClass["production"]; p.Rejected != 0 || p.ShedRate != 0 {
			t.Fatalf("%s: production shed: %+v", adm, p)
		}
	}
}

// TestReplayShedAccounting: under a tight token bucket the report separates
// goodput from shed work per class.
func TestReplayShedAccounting(t *testing.T) {
	tr := burstyTrace(t, 5, 2*time.Hour)
	rep, err := Replay(tr, ReplayConfig{Devices: 2, Seed: 4, Admission: "token-bucket"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("tight bucket shed nothing on a bursty trace")
	}
	dev := rep.PerClass["dev"]
	if dev.Rejected == 0 || dev.ShedRate <= 0 || dev.ShedRate >= 1 {
		t.Fatalf("dev shed accounting = %+v", dev)
	}
	if dev.GoodputJobsPerHour <= 0 {
		t.Fatalf("dev goodput = %g", dev.GoodputJobsPerHour)
	}
	// Rejected jobs never enter the wait distributions: completions plus
	// cancellations bound the started population.
	if dev.Completed+dev.Cancelled+dev.Failed+dev.Rejected != dev.Jobs {
		t.Fatalf("dev terminal accounting = %+v", dev)
	}
}

// TestSweepAdmissionAxisOrder: the third axis slots admission-minor into the
// router-major result order and each report carries its triple.
func TestSweepAdmissionAxisOrder(t *testing.T) {
	tr := burstyTrace(t, 5, time.Hour)
	s, err := Sweep(tr, SweepConfig{
		Devices:    2,
		Seed:       4,
		Routers:    []string{"round-robin"},
		Schedulers: []string{"fifo", "shortest-first"},
		Admissions: []string{"accept-all", "queue-depth"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 4 {
		t.Fatalf("1×2×2 sweep produced %d results", len(s.Results))
	}
	want := [][3]string{
		{"round-robin", "fifo", "accept-all"},
		{"round-robin", "fifo", "queue-depth"},
		{"round-robin", "shortest-first", "accept-all"},
		{"round-robin", "shortest-first", "queue-depth"},
	}
	for i, w := range want {
		r := s.Results[i]
		if r.Router != w[0] || r.Scheduler != w[1] || r.Admission != w[2] {
			t.Fatalf("result %d = %s/%s/%s, want %s/%s/%s", i, r.Router, r.Scheduler, r.Admission, w[0], w[1], w[2])
		}
	}
	if s.Find("round-robin", "shortest-first", "queue-depth") == nil {
		t.Fatal("Find missed a swept triple")
	}
	if _, err := Sweep(tr, SweepConfig{Admissions: []string{"bouncer"}}); err == nil {
		t.Fatal("unknown admission policy accepted by sweep")
	}
}

// TestSweepSLOGuardProtectsProduction24h is the acceptance-scale run: the
// full router × scheduler × admission matrix over a 24-hour, ~3600-job
// bursty trace. SLOGuard must cut production p99 wait versus AcceptAll under
// the bursty mix while shedding zero production work anywhere in the matrix,
// the sweep must finish inside 45 s of wall clock, and a second sweep must
// be byte-identical. Skipped in -short; `make test-full` runs it.
func TestSweepSLOGuardProtectsProduction24h(t *testing.T) {
	if testing.Short() {
		t.Skip("24h admission matrix sweep is a test-full experiment")
	}
	tr := burstyTrace(t, 6, 24*time.Hour)
	if n := len(tr.Records); n < 3500 || n > 3800 {
		t.Fatalf("24h bursty trace has %d jobs, want ~3600", n)
	}
	start := time.Now()
	s1, err := Sweep(tr, SweepConfig{Devices: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 45*time.Second {
		t.Fatalf("full 3-axis matrix sweep took %s, want < 45s", elapsed)
	}
	if len(s1.Results) != 3*3*4 {
		t.Fatalf("full matrix produced %d results", len(s1.Results))
	}

	// Production is never shed, by any policy triple in the matrix.
	for _, rep := range s1.Results {
		p := rep.PerClass["production"]
		if p == nil || p.Rejected != 0 || p.ShedRate != 0 {
			t.Fatalf("%s/%s/%s shed production work: %+v", rep.Router, rep.Scheduler, rep.Admission, p)
		}
		if rep.Completed == 0 {
			t.Fatalf("%s/%s/%s completed nothing", rep.Router, rep.Scheduler, rep.Admission)
		}
	}

	// The headline: on the default routing pair, the SLO-guard feedback
	// controller buys production latency with best-effort sheds.
	acceptAll := s1.Find("least-loaded", "fifo", "accept-all")
	sloGuard := s1.Find("least-loaded", "fifo", "slo-guard")
	if acceptAll == nil || sloGuard == nil {
		t.Fatal("matrix missing the headline pair")
	}
	aw := acceptAll.PerClass["production"].WaitSeconds.P99
	gw := sloGuard.PerClass["production"].WaitSeconds.P99
	if gw >= aw {
		t.Fatalf("slo-guard production p99 wait %.1fs not below accept-all %.1fs", gw, aw)
	}
	if sloGuard.Rejected == 0 {
		t.Fatal("slo-guard shed nothing under the bursty mix")
	}
	t.Logf("production p99 wait: accept-all %.1fs → slo-guard %.1fs (shed %d best-effort jobs of %d)",
		aw, gw, sloGuard.Rejected, sloGuard.Jobs)

	// Same trace + seed ⇒ byte-identical sweep reports.
	s2, err := Sweep(tr, SweepConfig{Devices: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, s1), marshalReport(t, s2)) {
		t.Fatal("3-axis matrix sweep not deterministic")
	}
}

// TestClosedLoopCaptureUnderPolicies: capture runs under an explicit policy
// triple, stays deterministic, and records shed arrivals as offered load.
func TestClosedLoopCaptureUnderPolicies(t *testing.T) {
	cfg := ClosedLoopConfig{
		Seed: 8, Horizon: 2 * time.Hour, Users: 6, ThinkMean: 2 * time.Minute, Devices: 2,
		Router: "round-robin", Scheduler: "shortest-first", Admission: "token-bucket",
	}
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
		t.Fatal("policy-driven capture not deterministic")
	}
	// The policy triple shapes completion-coupled arrivals: the default-
	// policy capture of the same seed differs.
	def, err := GenerateClosedLoop(ClosedLoopConfig{
		Seed: 8, Horizon: 2 * time.Hour, Users: 6, ThinkMean: 2 * time.Minute, Devices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bd bytes.Buffer
	if err := def.Write(&bd); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), bd.Bytes()) {
		t.Fatal("capture policies had no effect on the recorded trace")
	}
	if _, err := GenerateClosedLoop(ClosedLoopConfig{Admission: "bouncer"}); err == nil {
		t.Fatal("unknown admission policy accepted by capture")
	}
	// The captured trace replays under shedding without submit errors.
	rep, err := Replay(tr1, ReplayConfig{Devices: 2, Seed: 8, Admission: "token-bucket"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubmitErrors != 0 || rep.Completed == 0 {
		t.Fatalf("captured-trace replay: %d submit errors, %d completed", rep.SubmitErrors, rep.Completed)
	}
}
