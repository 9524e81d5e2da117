package daemon

import (
	"math"
	"testing"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

func TestConstantPriorityScoresEverythingEqually(t *testing.T) {
	p, err := NewPriority("constant")
	if err != nil {
		t.Fatal(err)
	}
	items := []*sched.Item{
		{},
		{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: time.Minute, Deadline: 2 * time.Hour},
		{Deadline: -time.Second},
	}
	for _, now := range []time.Duration{0, time.Nanosecond, 7 * 24 * time.Hour} {
		for i, it := range items {
			if s := p.Score(it, now); s != 0 {
				t.Fatalf("constant score(item %d, now %s) = %g, want 0", i, now, s)
			}
		}
	}
	if p.Name() != "constant" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// TestAgePriorityBoundaries covers the zero-age instant, monotone growth,
// and week-long sim times — 7 days of waiting must stay finite and ordered,
// not overflow or saturate.
func TestAgePriorityBoundaries(t *testing.T) {
	p, err := NewPriority("age")
	if err != nil {
		t.Fatal(err)
	}
	it := &sched.Item{Enqueued: time.Hour}
	if s := p.Score(it, time.Hour); s != 0 {
		t.Fatalf("age at enqueue instant = %g, want 0", s)
	}
	week := 7 * 24 * time.Hour
	s := p.Score(it, time.Hour+week)
	if s != week.Seconds() {
		t.Fatalf("week-old item scores %g, want %g", s, week.Seconds())
	}
	if math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("week-old age score is not finite: %g", s)
	}
	// Strictly monotone in waiting time: an older item always outranks a
	// younger one at the same tick.
	younger := &sched.Item{Enqueued: 2 * time.Hour}
	now := time.Hour + week
	if p.Score(it, now) <= p.Score(younger, now) {
		t.Fatal("older item does not outrank younger item")
	}
}

// TestSLOUrgencyBoundaries drives the least-slack score through the deadline:
// positive slack, exactly-zero slack, and already-late jobs whose urgency
// must keep rising instead of clamping.
func TestSLOUrgencyBoundaries(t *testing.T) {
	p, err := NewPriority("slo-urgency")
	if err != nil {
		t.Fatal(err)
	}
	it := &sched.Item{
		Class:       sched.ClassProduction,
		ExpectedQPU: 30 * time.Second,
		Deadline:    10 * time.Minute,
	}
	// slack = 10m − now − 30s.
	if s := p.Score(it, 0); s != -(9*time.Minute + 30*time.Second).Seconds() {
		t.Fatalf("fresh item score = %g", s)
	}
	// Zero time-to-deadline net of service: score crosses exactly 0.
	if s := p.Score(it, 9*time.Minute+30*time.Second); s != 0 {
		t.Fatalf("zero-slack score = %g, want 0", s)
	}
	// Already late: negative slack, positive score, still rising.
	late := p.Score(it, 11*time.Minute)
	if late <= 0 {
		t.Fatalf("late item score = %g, want > 0", late)
	}
	if later := p.Score(it, 12*time.Minute); later <= late {
		t.Fatalf("urgency stopped rising after the deadline: %g then %g", late, later)
	}
	// Equal deadlines, heterogeneous service: the longer job is more urgent.
	long := &sched.Item{Class: sched.ClassProduction, ExpectedQPU: 5 * time.Minute, Deadline: 10 * time.Minute}
	if p.Score(long, time.Minute) <= p.Score(it, time.Minute) {
		t.Fatal("longer-service job not scored more urgent at equal deadline")
	}
}

// TestDeadlineFallbackResolution: items without an explicit deadline resolve
// through the per-class contract anchored at their enqueue time; items in no
// contract at all sink to the no-deadline sentinel.
func TestDeadlineFallbackResolution(t *testing.T) {
	p, err := NewPriority("slo-urgency")
	if err != nil {
		t.Fatal(err)
	}
	// Production contract: 2m base + 2× service. Enqueued at 1h with 30s
	// service ⇒ deadline 1h + 2m + 60s, slack at now=1h is 2m+60s−30s.
	it := &sched.Item{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second}
	want := -(2*time.Minute + 60*time.Second - 30*time.Second).Seconds()
	if s := p.Score(it, time.Hour); s != want {
		t.Fatalf("fallback slack score = %g, want %g", s, want)
	}
	// An explicit deadline beats the contract.
	pinned := &sched.Item{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second, Deadline: time.Hour + time.Minute}
	if p.Score(pinned, time.Hour) <= p.Score(it, time.Hour) {
		t.Fatal("explicit tighter deadline not more urgent than the class fallback")
	}
	// dev=0 removes the dev fallback: dev items without explicit deadlines
	// sort behind everything that has one.
	stripped, err := NewPriority("slo-urgency:dev=0s")
	if err != nil {
		t.Fatal(err)
	}
	dev := &sched.Item{Class: sched.ClassDev, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second}
	if s := stripped.Score(dev, 2*time.Hour); s != noDeadlineScore {
		t.Fatalf("contract-less dev item score = %g, want the no-deadline sentinel", s)
	}
}

// TestEDFOrdering: EDF ranks purely by absolute deadline — earlier beats
// later, service time is irrelevant, and lateness does not change relative
// order (scores are constant in now).
func TestEDFOrdering(t *testing.T) {
	p, err := NewPriority("edf")
	if err != nil {
		t.Fatal(err)
	}
	early := &sched.Item{Class: sched.ClassProduction, Deadline: 5 * time.Minute, ExpectedQPU: time.Hour}
	late := &sched.Item{Class: sched.ClassProduction, Deadline: 6 * time.Minute, ExpectedQPU: time.Second}
	for _, now := range []time.Duration{0, 10 * time.Minute, 24 * time.Hour} {
		if p.Score(early, now) <= p.Score(late, now) {
			t.Fatalf("at now=%s EDF does not prefer the earlier deadline", now)
		}
	}
	if p.Score(early, 0) != p.Score(early, 24*time.Hour) {
		t.Fatal("EDF score varies with now")
	}
}

// TestNewPriorityParameters round-trips parameterized spellings and rejects
// the malformed ones.
func TestNewPriorityParameters(t *testing.T) {
	p, err := NewPriority("slo-urgency:deadline=120s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "slo-urgency:deadline=120s" {
		t.Fatalf("Name = %q, want the full parameterized spelling", p.Name())
	}
	// Flat 120s allowance for every class, replacing the service factor.
	it := &sched.Item{Class: sched.ClassDev, Enqueued: 0, ExpectedQPU: 10 * time.Second}
	if s := p.Score(it, 0); s != -110 {
		t.Fatalf("flat-deadline slack = %g, want -110", s)
	}

	perClass, err := NewPriority("edf:production=90s:dev=1h")
	if err != nil {
		t.Fatal(err)
	}
	prod := &sched.Item{Class: sched.ClassProduction, Enqueued: 0}
	if s := perClass.Score(prod, 0); s != -90 {
		t.Fatalf("production=90s EDF score = %g, want -90", s)
	}
	// The untouched test-class contract still applies its service factor.
	testItem := &sched.Item{Class: sched.ClassTest, Enqueued: 0, ExpectedQPU: time.Minute}
	spec := workload.DefaultDeadlines()[sched.ClassTest]
	if s := perClass.Score(testItem, 0); s != -spec.Offset(time.Minute).Seconds() {
		t.Fatalf("test-class contract perturbed by unrelated parameter: %g", s)
	}

	for _, bad := range []string{
		"constant:deadline=1s",
		"age:deadline=1s",
		"slo-urgency:deadline",
		"slo-urgency:deadline=",
		"slo-urgency:deadline=-5s",
		"slo-urgency:deadline=banana",
		"slo-urgency:qos=1s",
		"lottery",
	} {
		if _, err := NewPriority(bad); err == nil {
			t.Errorf("NewPriority(%q) accepted", bad)
		}
	}
}

func TestAllPrioritiesConstructible(t *testing.T) {
	names := Priorities.Names()
	if len(names) != 4 || names[0] != "constant" {
		t.Fatalf("AllPriorities = %v", names)
	}
	for _, name := range names {
		p, err := NewPriority(name)
		if err != nil {
			t.Fatalf("NewPriority(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name round-trip %q -> %q", name, p.Name())
		}
	}
	if p, err := NewPriority(""); err != nil || p.Name() != "constant" {
		t.Fatalf("empty name: %v, %v", p, err)
	}
}

// TestDeadlineSpecOffsetBoundaries pins the contract arithmetic at its
// edges: empty specs yield no deadline, and negative arithmetic clamps.
func TestDeadlineSpecOffsetBoundaries(t *testing.T) {
	if off := (workload.DeadlineSpec{}).Offset(time.Hour); off != 0 {
		t.Fatalf("empty spec offset = %s, want 0", off)
	}
	if off := (workload.DeadlineSpec{Base: time.Minute}).Offset(0); off != time.Minute {
		t.Fatalf("base-only offset = %s", off)
	}
	if off := (workload.DeadlineSpec{ServiceFactor: 2}).Offset(30 * time.Second); off != time.Minute {
		t.Fatalf("factor-only offset = %s", off)
	}
	if off := (workload.DeadlineSpec{Base: time.Minute, ServiceFactor: -120}).Offset(time.Second); off != 0 {
		t.Fatalf("negative arithmetic offset = %s, want clamp to 0", off)
	}
}
