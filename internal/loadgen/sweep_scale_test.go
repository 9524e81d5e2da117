package loadgen

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
)

// wideTrace is the thousand-cell matrix workload: short enough that a single
// cell replays in milliseconds, busy enough that every policy axis has work
// to disagree about.
func wideTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Generate(Config{Seed: 7, Horizon: 30 * time.Minute, Process: &Poisson{RatePerHour: 240}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// wideMatrixConfig crosses every axis the sweep knows. Full mode is the
// thousand-cell matrix the bounded-memory engine exists for (3 routers × 3
// schedulers × 4 admissions × 2 priorities × 2 fleets × 2 preemption × 2
// rates × 2 shots = 1152 cells); -short trims the generalized axes to keep
// the matrix a quick 144 cells.
func wideMatrixConfig(short bool) SweepConfig {
	cfg := SweepConfig{
		Devices:     4,
		Seed:        3,
		Priorities:  []string{"constant", "age"},
		FleetSizes:  []int{2, 4},
		Preemptions: []string{"on", "off"},
		RateScales:  []float64{1, 2},
		ShotScales:  []float64{1, 2},
	}
	if short {
		cfg.Priorities = []string{"constant"}
		cfg.FleetSizes = []int{2}
		cfg.ShotScales = []float64{1}
	}
	return cfg
}

// TestSweepWideMatrixByteIdentical is the bounded-memory engine's contract:
// a full generalized-axis sweep (a thousand cells in full mode) produces
// byte-identical reports whatever the worker count — the pool, the shared
// prepared trace and the recycled per-cell scratch may change wall clock and
// live heap, never bytes.
func TestSweepWideMatrixByteIdentical(t *testing.T) {
	tr := wideTrace(t)
	cfg := wideMatrixConfig(testing.Short())

	pooled, err := Sweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * 3 * 4 * len(cfg.Priorities) * len(cfg.FleetSizes) * len(cfg.Preemptions) * len(cfg.RateScales) * len(cfg.ShotScales)
	if len(pooled.Results) != want {
		t.Fatalf("wide matrix has %d cells, want %d", len(pooled.Results), want)
	}

	serialCfg := cfg
	serialCfg.Workers = 1
	serial, err := Sweep(tr, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, pooled), marshalReport(t, serial)) {
		t.Fatal("worker count changed sweep report bytes")
	}

	// Every cell is stamped with its full axis coordinates (fleet axis is
	// explicit here, so even the Devices-sized fleet is spelled out), and the
	// canonical order puts the generalized axes innermost.
	for i, rep := range pooled.Results {
		if rep.FleetSize == 0 {
			t.Fatalf("cell %d missing fleet stamp: %s/%s/%s", i, rep.Router, rep.Scheduler, rep.Admission)
		}
		if rep.Jobs != len(tr.Records) {
			t.Fatalf("cell %d saw %d jobs, want %d", i, rep.Jobs, len(tr.Records))
		}
	}
	inner := len(cfg.FleetSizes) * len(cfg.Preemptions) * len(cfg.RateScales) * len(cfg.ShotScales)
	for i := 0; i < inner; i++ {
		if r := pooled.Results[i]; r.Router != "round-robin" || r.Scheduler != "fifo" || r.Admission != "accept-all" || r.Priority != "" {
			t.Fatalf("canonical order broken at cell %d: %s/%s/%s/%s", i, r.Router, r.Scheduler, r.Admission, r.Priority)
		}
	}
}

// TestSweepFindCellFiveAxis pins FindCell against the generalized matrix:
// every spelled-out combination resolves to exactly one cell whose stamps
// match, default spellings ("" / "constant" / "on" / scale 1) alias each
// other, and axis values outside the sweep come back nil.
func TestSweepFindCellFiveAxis(t *testing.T) {
	tr := wideTrace(t)
	s, err := Sweep(tr, SweepConfig{
		Devices:     4,
		Seed:        3,
		Routers:     []string{"least-loaded"},
		Schedulers:  []string{"fifo"},
		Admissions:  []string{"accept-all"},
		Priorities:  []string{"constant", "age"},
		FleetSizes:  []int{2, 3},
		Preemptions: []string{"on", "off"},
		RateScales:  []float64{1, 2},
		ShotScales:  []float64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 32 {
		t.Fatalf("matrix has %d cells, want 32", len(s.Results))
	}

	seen := map[*Report]bool{}
	for _, prio := range []string{"constant", "age"} {
		for _, fleet := range []int{2, 3} {
			for _, preempt := range []string{"on", "off"} {
				for _, rate := range []float64{1, 2} {
					for _, shot := range []float64{1, 2} {
						c := Cell{
							Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all",
							Priority: prio, FleetSize: fleet, Preemption: preempt,
							RateScale: rate, ShotScale: shot,
						}
						rep := s.FindCell(c)
						if rep == nil {
							t.Fatalf("FindCell(%+v) = nil", c)
						}
						if seen[rep] {
							t.Fatalf("FindCell(%+v) aliased another combination", c)
						}
						seen[rep] = true
						// The report's omit-at-default stamps must match the
						// pinned coordinates.
						wantPrio := prio
						if wantPrio == "constant" {
							wantPrio = ""
						}
						wantPreempt := ""
						if preempt == "off" {
							wantPreempt = "off"
						}
						wantRate, wantShot := rate, shot
						if wantRate == 1 {
							wantRate = 0
						}
						if wantShot == 1 {
							wantShot = 0
						}
						if rep.Priority != wantPrio || rep.FleetSize != fleet ||
							rep.Preemption != wantPreempt || rep.RateScale != wantRate || rep.ShotScale != wantShot {
							t.Fatalf("FindCell(%+v) stamps = %s/%d/%s/%g/%g",
								c, rep.Priority, rep.FleetSize, rep.Preemption, rep.RateScale, rep.ShotScale)
						}
					}
				}
			}
		}
	}
	if len(seen) != 32 {
		t.Fatalf("exhaustive lookup visited %d distinct cells, want 32", len(seen))
	}

	// Default spellings alias the explicit ones.
	explicit := s.FindCell(Cell{
		Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all",
		Priority: "constant", FleetSize: 2, Preemption: "on", RateScale: 1, ShotScale: 1,
	})
	zeroSpelled := s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", FleetSize: 2})
	if explicit == nil || explicit != zeroSpelled {
		t.Fatal("default spellings resolve to different cells")
	}
	// Find returns the first cell in canonical order — the same one.
	if s.Find("least-loaded", "fifo", "accept-all") != explicit {
		t.Fatal("Find does not return the first canonical cell")
	}

	// Values outside the sweep miss cleanly: an unswept fleet size, and the
	// fleet default (Devices=4 was not in the axis, so FleetSize 0 normalizes
	// to a cell that does not exist).
	if s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", FleetSize: 8}) != nil {
		t.Fatal("FindCell invented a fleet-8 cell")
	}
	if s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all"}) != nil {
		t.Fatal("FindCell resolved the unswept default fleet")
	}

	// A sweep that never crosses fleet sizes keeps the symmetric
	// normalization: spelling out the sweep-wide device count finds the
	// unstamped cell.
	plain, err := Sweep(tr, SweepConfig{
		Devices: 4, Seed: 3,
		Routers: []string{"least-loaded"}, Schedulers: []string{"fifo"}, Admissions: []string{"accept-all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := plain.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", FleetSize: 4})
	if cell == nil || cell.FleetSize != 0 {
		t.Fatal("explicit default fleet size did not find the unstamped cell")
	}
}

// TestReplayRateScale locks the arrival-compression semantics: 0 and 1 are
// byte-identical to an unscaled replay, a >1 scale compresses the makespan
// and stamps the report, scaled replays rerun byte-identically, and garbage
// scales fail loudly.
func TestReplayRateScale(t *testing.T) {
	tr := wideTrace(t)
	base := ReplayConfig{Devices: 2, Seed: 5, Router: "least-loaded", Scheduler: "fifo"}

	plain, err := Replay(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.RateScale = 1
	r1, err := Replay(tr, one)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, plain), marshalReport(t, r1)) {
		t.Fatal("RateScale 1 perturbed the report bytes")
	}
	if plain.RateScale != 0 {
		t.Fatalf("unscaled report stamped rate scale %g", plain.RateScale)
	}

	four := base
	four.RateScale = 4
	r4a, err := Replay(tr, four)
	if err != nil {
		t.Fatal(err)
	}
	r4b, err := Replay(tr, four)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, r4a), marshalReport(t, r4b)) {
		t.Fatal("scaled replay not byte-identical across reruns")
	}
	if r4a.RateScale != 4 {
		t.Fatalf("scaled report stamped %g, want 4", r4a.RateScale)
	}
	if r4a.Jobs != plain.Jobs {
		t.Fatalf("compression changed the workload: %d vs %d jobs", r4a.Jobs, plain.Jobs)
	}
	// 4× compression squeezes the same arrivals into a quarter of the time,
	// so the makespan must shrink (service time floors it above exactly 1/4).
	if r4a.MakespanSeconds >= plain.MakespanSeconds {
		t.Fatalf("4x rate scale did not compress makespan: %g vs %g", r4a.MakespanSeconds, plain.MakespanSeconds)
	}

	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg := base
		cfg.RateScale = bad
		if _, err := Replay(tr, cfg); err == nil || !strings.Contains(err.Error(), "rate scale") {
			t.Fatalf("RateScale %g accepted (err=%v)", bad, err)
		}
	}
}

// TestReplayShotScale locks the device-speed axis: faster shots shorten the
// makespan, scale 1 leaves bytes alone, and the stamp mirrors the config.
func TestReplayShotScale(t *testing.T) {
	tr := wideTrace(t)
	base := ReplayConfig{Devices: 2, Seed: 5}

	plain, err := Replay(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.ShotScale = 1
	r1, err := Replay(tr, one)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, plain), marshalReport(t, r1)) {
		t.Fatal("ShotScale 1 perturbed the report bytes")
	}

	fast := base
	fast.ShotScale = 4
	rf, err := Replay(tr, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rf.ShotScale != 4 {
		t.Fatalf("shot-scaled report stamped %g, want 4", rf.ShotScale)
	}
	// A 4× shot rate quarters every service time, so the last job finishes
	// strictly earlier.
	if rf.MakespanSeconds >= plain.MakespanSeconds {
		t.Fatalf("4x shot rate did not shrink makespan: %g vs %g", rf.MakespanSeconds, plain.MakespanSeconds)
	}
}

// TestSweepDefaultCombinations pins what an unconfigured sweep enumerates: 36
// cells — the three cache-independent routers × every scheduler × every
// admission policy × the default priority — router-major, scheduler next,
// admission fastest. `all` on the router axis deliberately leaves out the
// affinity router (inert without a program cache); naming it adds it.
func TestSweepDefaultCombinations(t *testing.T) {
	combos, err := sweepCombos(&SweepConfig{Devices: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range []string{"round-robin", "least-loaded", "class-affinity"} {
		for _, s := range daemon.Orders.Names() {
			for _, a := range admission.Policies.Names() {
				want = append(want, r+"/"+s+"/"+a+" fleet=4")
			}
		}
	}
	if len(combos) != 36 || len(want) != 36 {
		t.Fatalf("default sweep has %d cells (%d expected from the registries), want 36", len(combos), len(want))
	}
	for i := range combos {
		if got := combos[i].label(); got != want[i] {
			t.Fatalf("cell %d is %q, want %q", i, got, want[i])
		}
		if combos[i].Seed != 9 || combos[i].RateScale != 1 || combos[i].ShotScale != 1 || combos[i].DisablePreemption {
			t.Fatalf("cell %d does not carry the shared fields and axis defaults: %+v", i, combos[i])
		}
	}
	named, err := sweepCombos(&SweepConfig{Devices: 4, Routers: []string{"all"}, Schedulers: []string{"fifo"},
		Admissions: []string{"accept-all"}})
	if err != nil || len(named) != 3 {
		t.Fatalf(`routers "all" expands to %d cells (%v), want the 3 cache-independent routers`, len(named), err)
	}
	if _, err := sweepCombos(&SweepConfig{Devices: 4, Routers: []string{"least-loaded", "warp"}}); err == nil {
		t.Fatal("unknown router on the axis accepted")
	}
}

// TestReplayLabelNamesEveryAxis: the one label behind sweep, saturate and
// drain errors names every axis that left its default, so a stuck
// edf × preempt=off cell is identifiable from the message alone.
func TestReplayLabelNamesEveryAxis(t *testing.T) {
	cfg := ReplayConfig{Devices: 1, Router: "least-loaded", Scheduler: "fair-share", Admission: "accept-all", Priority: "edf:production=90s",
		DisablePreemption: true, RateScale: 8, ShotScale: 1.5}
	if got, want := cfg.label(), "least-loaded/fair-share/accept-all/edf:production=90s/preempt=off fleet=1 rate=8 shot=1.5"; got != want {
		t.Fatalf("label = %q, want %q", got, want)
	}
	// A backlog that cannot drain inside the grace reports that label.
	tr := burstyTrace(t, 5, 2*time.Hour)
	cfg.DrainGrace = time.Second
	if _, err := Replay(tr, cfg); err == nil || !strings.Contains(err.Error(), cfg.label()) {
		t.Fatalf("drain error %v does not carry the replay label %q", err, cfg.label())
	}
}
