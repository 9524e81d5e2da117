package loadgen

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/experiments"
	"hpcqc/internal/workload"
)

// saturateTrace is the capacity-search workload: an hour of Poisson arrivals
// busy enough that compressing them saturates a small fleet within a few
// doublings.
func saturateTrace(t *testing.T, seed int64) *Trace {
	t.Helper()
	tr, err := Generate(Config{Seed: seed, Horizon: time.Hour, Process: &Poisson{RatePerHour: 120}})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// leastLoadedFIFO is the one-tuple matrix most saturate tests search:
// least-loaded × fifo × accept-all on each of fleets.
func leastLoadedFIFO(seed int64, fleets ...int) SweepConfig {
	return SweepConfig{Seed: seed, Routers: []string{"least-loaded"}, Schedulers: []string{"fifo"},
		Admissions: []string{"accept-all"}, FleetSizes: fleets}
}

// TestSaturateByteIdentical is the frontier report's determinism contract:
// identical configs produce byte-identical reports, whatever the worker
// count — the same guarantee the sweep gives, extended to an adaptive probe
// sequence.
func TestSaturateByteIdentical(t *testing.T) {
	tr := saturateTrace(t, 11)
	cfg := SaturateConfig{
		SweepConfig: leastLoadedFIFO(11, 1, 2),
		MaxScale:    16,
		Tolerance:   0.2,
	}
	r1, err := Saturate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Saturate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial := cfg
	serial.Workers = 1
	r3, err := Saturate(tr, serial)
	if err != nil {
		t.Fatal(err)
	}
	b1 := marshalReport(t, r1)
	if !bytes.Equal(b1, marshalReport(t, r2)) {
		t.Fatal("identical saturate runs produced different reports")
	}
	if !bytes.Equal(b1, marshalReport(t, r3)) {
		t.Fatal("worker count changed frontier report bytes")
	}
	if len(r1.Points) != 2 || len(r1.Ranking) != 2 {
		t.Fatalf("frontier has %d points / %d ranks, want 2/2", len(r1.Points), len(r1.Ranking))
	}
	for _, pt := range r1.Points {
		if pt.Probes == 0 {
			t.Fatalf("%s reported a knee with zero probes", pt.Tuple())
		}
	}
	if r1.BaseJobsPerHour <= 0 {
		t.Fatalf("base rate %g", r1.BaseJobsPerHour)
	}
}

// TestSaturateFleetMonotonic is the frontier's core physical check: more
// partitions sustain strictly more load. The larger fleet's knee must beat
// the smaller's (or hit the search cap), and the throughput ranking must
// order it strictly above.
func TestSaturateFleetMonotonic(t *testing.T) {
	tr := saturateTrace(t, 11)
	rep, err := Saturate(tr, SaturateConfig{
		SweepConfig: leastLoadedFIFO(11, 1, 4),
		MaxScale:    32,
		Tolerance:   0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	byFleet := map[int]*FrontierPoint{}
	for _, pt := range rep.Points {
		byFleet[pt.FleetSize] = pt
	}
	small, big := byFleet[1], byFleet[4]
	if small == nil || big == nil {
		t.Fatalf("frontier missing a fleet: %+v", rep.Points)
	}
	if small.ViolatedAtBase {
		t.Fatalf("single-partition fleet cannot sustain even the base rate: %+v", small)
	}
	if !big.Capped && big.MaxSustainableScale <= small.MaxSustainableScale {
		t.Fatalf("fleet 4 knee %gx not above fleet 1 knee %gx",
			big.MaxSustainableScale, small.MaxSustainableScale)
	}
	if big.MaxSustainableJobsPerHour <= small.MaxSustainableJobsPerHour {
		t.Fatalf("fleet 4 sustains %g jobs/h, fleet 1 %g — not monotone",
			big.MaxSustainableJobsPerHour, small.MaxSustainableJobsPerHour)
	}
}

// syntheticProbe fabricates a probe report whose production p99 wait is a
// pure function of the rate scale — the injection seam for search edge cases
// the real replay engine cannot produce on demand.
func syntheticProbe(wait func(scale float64, devices int) float64) func(*Trace, ReplayConfig) (*Report, error) {
	return func(_ *Trace, cfg ReplayConfig) (*Report, error) {
		scale := cfg.RateScale
		if scale == 0 {
			scale = 1
		}
		return &Report{
			PerClass: map[string]*ClassSLO{
				"production": {Jobs: 1, WaitSeconds: Quantiles{P99: wait(scale, cfg.Devices)}},
			},
		}, nil
	}
}

// TestSaturateNonMonotoneGuard: a knee bracketing search is only valid for
// objectives monotone in load. Inject an objective with a violation valley
// strictly below the knee and require the search to fail loudly instead of
// reporting the fabricated knee.
func TestSaturateNonMonotoneGuard(t *testing.T) {
	tr := saturateTrace(t, 11)
	cfg := SaturateConfig{
		SweepConfig: leastLoadedFIFO(11),
		MaxScale:    8,
		Tolerance:   0.25,
		// Violates at ≥6 (the real knee the search brackets) and in the
		// (2.5, 3.5) valley the interior guard probes must trip over.
		probe: syntheticProbe(func(scale float64, _ int) float64 {
			if scale >= 6 || (scale > 2.5 && scale < 3.5) {
				return 1000
			}
			return 10
		}),
	}
	_, err := Saturate(tr, cfg)
	if err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Fatalf("non-monotone objective accepted: err=%v", err)
	}
}

// TestSaturateRejectsBadParameters: zero means "default" for every float
// parameter, and anything else a search cannot mean — a negative or NaN
// target, a NaN tolerance or scale cap, a NaN, infinite or negative price,
// or a sweep axis a frontier point cannot name — fails before any probe
// runs, instead of being read as unset or surfacing only in the report
// encoder.
func TestSaturateRejectsBadParameters(t *testing.T) {
	tr := saturateTrace(t, 11)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*SaturateConfig)
		want string
	}{
		{"negative target", func(c *SaturateConfig) { c.TargetSeconds = -5 }, "p99-wait target -5"},
		{"NaN target", func(c *SaturateConfig) { c.TargetSeconds = nan }, "p99-wait target NaN"},
		{"infinite target", func(c *SaturateConfig) { c.TargetSeconds = inf }, "p99-wait target +Inf"},
		{"negative hit rate", func(c *SaturateConfig) { c.TargetHitRate = -0.5 }, "deadline-hit target -0.5"},
		{"NaN hit rate", func(c *SaturateConfig) { c.TargetHitRate = nan }, "deadline-hit target NaN"},
		{"NaN tolerance", func(c *SaturateConfig) { c.Tolerance = nan }, "tolerance NaN"},
		{"NaN max scale", func(c *SaturateConfig) { c.MaxScale = nan }, "max scale NaN"},
		{"NaN cost", func(c *SaturateConfig) { c.CostPerDeviceHour = nan }, "cost per device-hour NaN"},
		{"infinite cost", func(c *SaturateConfig) { c.CostPerDeviceHour = inf }, "cost per device-hour +Inf"},
		{"negative cost", func(c *SaturateConfig) { c.CostPerDeviceHour = -1 }, "cost per device-hour -1"},
		{"rate scales", func(c *SaturateConfig) { c.RateScales = []float64{2} }, "takes no rate scales"},
		{"preemptions", func(c *SaturateConfig) { c.Preemptions = []string{"off"} }, "takes no rate scales"},
		{"shot scales", func(c *SaturateConfig) { c.ShotScales = []float64{2} }, "takes no rate scales"},
		{"tracing", func(c *SaturateConfig) { c.Tracing = true }, "takes no rate scales"},
	} {
		probes := 0
		cfg := SaturateConfig{SweepConfig: leastLoadedFIFO(11),
			probe: func(*Trace, ReplayConfig) (*Report, error) { probes++; return &Report{}, nil }}
		cfg.Workers = 1 // probes is counted unguarded
		tc.edit(&cfg)
		_, err := Saturate(tr, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
		if probes != 0 {
			t.Errorf("%s: %d probes ran before the rejection", tc.name, probes)
		}
	}
}

// TestSaturateZeroCapacityFleet: a zero-partition fleet has no knee to find;
// the search must reject it up front rather than let the replay driver
// silently substitute its default fleet.
func TestSaturateZeroCapacityFleet(t *testing.T) {
	tr := saturateTrace(t, 11)
	_, err := Saturate(tr, SaturateConfig{
		SweepConfig: leastLoadedFIFO(0, 0),
	})
	if err == nil || !strings.Contains(err.Error(), "fleet size 0") {
		t.Fatalf("zero-capacity fleet accepted: err=%v", err)
	}
}

// TestSaturateViolatedAtBase: a tuple that misses target at 1× gets a
// zero-knee point flagged ViolatedAtBase and sinks to the bottom of the
// ranking, below every tuple that sustains anything.
func TestSaturateViolatedAtBase(t *testing.T) {
	tr := saturateTrace(t, 11)
	rep, err := Saturate(tr, SaturateConfig{
		SweepConfig: leastLoadedFIFO(11, 1, 2),
		MaxScale:    8,
		Tolerance:   0.25,
		// Fleet 1 is hopeless at any scale; fleet 2 sustains up to 4×.
		probe: syntheticProbe(func(scale float64, devices int) float64 {
			if devices < 2 || scale > 4 {
				return 1000
			}
			return 10
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	byFleet := map[int]*FrontierPoint{}
	for _, pt := range rep.Points {
		byFleet[pt.FleetSize] = pt
	}
	hopeless := byFleet[1]
	if !hopeless.ViolatedAtBase || hopeless.MaxSustainableScale != 0 || hopeless.FirstViolation != 1 {
		t.Fatalf("hopeless tuple = %+v", hopeless)
	}
	if hopeless.MaxSustainableJobsPerHour != 0 || hopeless.CostPerThousandJobs != 0 {
		t.Fatalf("hopeless tuple priced as sustainable: %+v", hopeless)
	}
	if byFleet[2].ViolatedAtBase || byFleet[2].MaxSustainableScale < 3 {
		t.Fatalf("sustainable tuple = %+v", byFleet[2])
	}
	if rep.Ranking[0].FleetSize != 2 || rep.Ranking[len(rep.Ranking)-1].FleetSize != 1 {
		t.Fatalf("ranking does not sink the unsustainable tuple: %+v", rep.Ranking)
	}
}

// TestSaturateTargetViolatedAtBaseReal drives the ViolatedAtBase path
// through the real replay engine: a single-partition fleet under twenty
// times the usual offered load stacks production jobs behind each other at
// the recorded rate already, so a tight wait target is violated at 1× and
// the tuple reports a zero knee after exactly one probe.
func TestSaturateTargetViolatedAtBaseReal(t *testing.T) {
	tr, err := Generate(Config{Seed: 11, Horizon: time.Hour, Process: &Poisson{RatePerHour: 2400}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Saturate(tr, SaturateConfig{
		SweepConfig:   leastLoadedFIFO(11, 1),
		TargetSeconds: 1,
		MaxScale:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := rep.Points[0]
	if !pt.ViolatedAtBase || pt.MaxSustainableScale != 0 || pt.Probes != 1 {
		t.Fatalf("unmeetable target point = %+v", pt)
	}
}

// TestSaturateDeadlineObjectiveNeedsDeadlines: the deadline-hit objective is
// meaningless on a trace without production deadlines, and must say so
// instead of reporting vacuous knees.
func TestSaturateDeadlineObjectiveNeedsDeadlines(t *testing.T) {
	tr := saturateTrace(t, 11)
	_, err := Saturate(tr, SaturateConfig{
		SweepConfig: leastLoadedFIFO(0),
		Objective:   ObjectiveDeadlineHit,
	})
	if err == nil || !strings.Contains(err.Error(), "production deadlines") {
		t.Fatalf("deadline-hit on a deadline-less trace accepted: err=%v", err)
	}
}

// TestSaturateDeadlineObjective runs the deadline-hit knee search end to end
// on a deadline-stamped trace.
func TestSaturateDeadlineObjective(t *testing.T) {
	tr, err := Generate(Config{
		Seed:      11,
		Horizon:   time.Hour,
		Process:   &Poisson{RatePerHour: 120},
		Deadlines: workload.DefaultDeadlines(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Saturate(tr, SaturateConfig{
		SweepConfig: leastLoadedFIFO(11),
		Objective:   ObjectiveDeadlineHit,
		MaxScale:    16,
		Tolerance:   0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := rep.Points[0]
	if pt.ViolatedAtBase {
		t.Fatalf("base trace misses its own deadline contracts: %+v", pt)
	}
	if rep.Objective != ObjectiveDeadlineHit || rep.Target != 0.95 {
		t.Fatalf("report objective %s target %g", rep.Objective, rep.Target)
	}
	if !pt.Capped && pt.ObjectiveAtKnee < 0.95 {
		t.Fatalf("knee hit rate %g below target", pt.ObjectiveAtKnee)
	}
}

// TestSaturateFrontierDominance is the h-frontier experiment (see
// EXPERIMENTS.md): across seeds, a doubled fleet must sustain strictly more
// load under the same policy tuple — frontier dominance, in the
// seed-replicated style the deadline experiment established, with the
// unbiased Mann–Whitney estimate as the summary.
func TestSaturateFrontierDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier dominance is a test-full experiment")
	}
	seeds := []int64{1, 2, 3, 4, 5}
	res, err := experiments.RunDominance(
		"max sustainable jobs/hour", "fleet-4", "fleet-1", seeds,
		func(seed int64) (float64, float64, error) {
			// The quadrupled fleet is compared against a single partition so
			// raw capacity — not production-collision luck — sets the knee: a
			// lone device knees well under the cap on every seed, while the
			// larger fleet's knee (capped or not) sits far above it.
			rep, err := Saturate(saturateTrace(t, seed), SaturateConfig{
				SweepConfig: leastLoadedFIFO(seed, 1, 4),
				MaxScale:    64,
				Tolerance:   0.1,
			})
			if err != nil {
				return 0, 0, err
			}
			byFleet := map[int]*FrontierPoint{}
			for _, pt := range rep.Points {
				byFleet[pt.FleetSize] = pt
			}
			return byFleet[4].MaxSustainableJobsPerHour, byFleet[1].MaxSustainableJobsPerHour, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())
	if !res.Dominant() {
		t.Errorf("fleet 4 won only %d/%d seeds on sustainable throughput", res.AWins, len(seeds))
	}
	if res.AWins != len(seeds) {
		t.Errorf("frontier dominance must be strict on every seed: %d/%d wins", res.AWins, len(seeds))
	}
	if res.PHat <= 0.5 {
		t.Errorf("Mann–Whitney p̂ = %.3f, want > 0.5", res.PHat)
	}
}
