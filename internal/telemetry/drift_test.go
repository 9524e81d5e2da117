package telemetry

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestDriftDetectorStableSignal(t *testing.T) {
	d := NewDriftDetector()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		// 0.5% relative noise around 10: well inside the 5% warn band.
		state := d.Observe(10 + rng.NormFloat64()*0.05)
		if state != DriftOK {
			t.Fatalf("stable signal flagged %v at sample %d (dev %g)", state, i, d.Deviation())
		}
	}
}

func TestDriftDetectorDetectsStep(t *testing.T) {
	d := NewDriftDetector()
	for i := 0; i < 200; i++ {
		d.Observe(10)
	}
	// 20% step: must reach critical within a few samples.
	var state DriftState
	for i := 0; i < 30; i++ {
		state = d.Observe(12)
	}
	if state != DriftCritical {
		t.Fatalf("step not detected: %v (dev %g)", state, d.Deviation())
	}
}

func TestDriftDetectorWarningBand(t *testing.T) {
	d := NewDriftDetector()
	for i := 0; i < 200; i++ {
		d.Observe(10)
	}
	// 8% step: warning but not critical.
	var state DriftState
	for i := 0; i < 30; i++ {
		state = d.Observe(10.8)
	}
	if state != DriftWarning {
		t.Fatalf("8%% step state = %v (dev %g)", state, d.Deviation())
	}
}

func TestDriftBaselineFrozenDuringDrift(t *testing.T) {
	d := NewDriftDetector()
	for i := 0; i < 200; i++ {
		d.Observe(10)
	}
	for i := 0; i < 500; i++ {
		d.Observe(13) // sustained 30% drift
	}
	// The baseline must not have absorbed the drifted value: the deviation
	// still reads the full 30 %.
	if dev := d.Deviation(); math.Abs(dev-0.3) > 0.05 {
		t.Fatalf("baseline absorbed drift: deviation %g, want ≈ 0.3", dev)
	}
	if d.State() != DriftCritical {
		t.Fatalf("state = %v", d.State())
	}
}

func TestDriftSlowDrift(t *testing.T) {
	// Slow ramp: 0.1% per sample. The detector should eventually flag it.
	d := NewDriftDetector()
	for i := 0; i < 100; i++ {
		d.Observe(10)
	}
	flagged := false
	v := 10.0
	for i := 0; i < 2000; i++ {
		v *= 1.001
		if d.Observe(v) != DriftOK {
			flagged = true
			break
		}
	}
	if !flagged {
		t.Fatal("slow drift never flagged")
	}
}

func TestDriftZeroBaseline(t *testing.T) {
	d := NewDriftDetector()
	d.Observe(0)
	if d.Deviation() != 0 {
		t.Fatalf("zero/zero deviation = %g", d.Deviation())
	}
	d.Observe(1)
	if !math.IsInf(d.Deviation(), 1) && d.Deviation() < criticalThreshold {
		t.Fatalf("deviation from zero baseline = %g", d.Deviation())
	}
}

func TestDriftStateString(t *testing.T) {
	if DriftOK.String() != "ok" || DriftWarning.String() != "warning" || DriftCritical.String() != "critical" {
		t.Fatal("state strings")
	}
	if DriftState(99).String() != "unknown" {
		t.Fatal("unknown state string")
	}
}

func TestAlertManagerFiresAfterFor(t *testing.T) {
	db := NewTSDB(0, 0)
	am := NewAlertManager(db)
	err := am.AddRule(&AlertRule{
		Name:      "qpu_temp_high",
		Series:    "temp",
		Severity:  SeverityCritical,
		Predicate: func(v float64) bool { return v > 50 },
		For:       10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Append("temp", nil, 0, 60)
	if fired := am.Evaluate(0); len(fired) != 0 {
		t.Fatalf("fired before For elapsed: %v", fired)
	}
	db.Append("temp", nil, 5*time.Second, 61)
	if fired := am.Evaluate(5 * time.Second); len(fired) != 0 {
		t.Fatal("fired too early")
	}
	db.Append("temp", nil, 12*time.Second, 62)
	fired := am.Evaluate(12 * time.Second)
	if len(fired) != 1 || fired[0].Rule != "qpu_temp_high" || fired[0].Severity != "critical" {
		t.Fatalf("fired = %v", fired)
	}
	// Still firing, but not re-emitted.
	db.Append("temp", nil, 20*time.Second, 70)
	if fired := am.Evaluate(20 * time.Second); len(fired) != 0 {
		t.Fatal("alert re-fired while active")
	}
	if f := am.Firing(); len(f) != 1 || f[0] != "qpu_temp_high" {
		t.Fatalf("firing = %v", f)
	}
}

func TestAlertClearsAndRefires(t *testing.T) {
	db := NewTSDB(0, 0)
	am := NewAlertManager(db)
	am.AddRule(&AlertRule{
		Name:      "r",
		Series:    "x",
		Predicate: func(v float64) bool { return v > 1 },
	})
	db.Append("x", nil, 0, 5)
	if len(am.Evaluate(0)) != 1 {
		t.Fatal("did not fire with For=0")
	}
	db.Append("x", nil, time.Second, 0)
	am.Evaluate(time.Second)
	if len(am.Firing()) != 0 {
		t.Fatal("alert did not clear")
	}
	db.Append("x", nil, 2*time.Second, 5)
	if len(am.Evaluate(2*time.Second)) != 1 {
		t.Fatal("did not refire")
	}
}

func TestAlertTransientDebounced(t *testing.T) {
	db := NewTSDB(0, 0)
	am := NewAlertManager(db)
	am.AddRule(&AlertRule{
		Name:      "r",
		Series:    "x",
		Predicate: func(v float64) bool { return v > 1 },
		For:       10 * time.Second,
	})
	// Spike, recover, spike again: never sustained ≥ 10s.
	var fired []Alert
	for _, s := range []struct {
		at    time.Duration
		value float64
	}{{0, 5}, {5 * time.Second, 0}, {8 * time.Second, 5}, {15 * time.Second, 0}} {
		db.Append("x", nil, s.at, s.value)
		fired = append(fired, am.Evaluate(s.at)...)
	}
	if len(fired) != 0 {
		t.Fatalf("transient fired: %v", fired)
	}
}

func TestAlertRuleValidation(t *testing.T) {
	am := NewAlertManager(NewTSDB(0, 0))
	if err := am.AddRule(&AlertRule{Name: "", Series: "x", Predicate: func(float64) bool { return true }}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := am.AddRule(&AlertRule{Name: "a", Series: "x"}); err == nil {
		t.Fatal("nil predicate accepted")
	}
	ok := &AlertRule{Name: "a", Series: "x", Predicate: func(float64) bool { return true }}
	if err := am.AddRule(ok); err != nil {
		t.Fatal(err)
	}
	dup := &AlertRule{Name: "a", Series: "y", Predicate: func(float64) bool { return true }}
	if err := am.AddRule(dup); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestAlertMissingSeriesIgnored(t *testing.T) {
	am := NewAlertManager(NewTSDB(0, 0))
	am.AddRule(&AlertRule{Name: "a", Series: "ghost", Predicate: func(float64) bool { return true }})
	if fired := am.Evaluate(0); len(fired) != 0 {
		t.Fatal("fired on missing series")
	}
}
