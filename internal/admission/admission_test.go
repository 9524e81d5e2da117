package admission

import (
	"strings"
	"testing"
	"time"

	"hpcqc/internal/sched"
)

func devReq(now time.Duration) Request {
	return Request{Class: sched.ClassDev, Now: now}
}

func TestAcceptAllAcceptsEverything(t *testing.T) {
	p := AcceptAll{}
	for _, c := range []sched.Class{sched.ClassDev, sched.ClassTest, sched.ClassProduction} {
		dec := p.Admit(Request{Class: c}, View{})
		if dec.Outcome != Accepted || dec.Class != c {
			t.Fatalf("accept-all on %s = %+v", c, dec)
		}
	}
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range AllPolicies() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if p, err := NewPolicy(""); err != nil || p.Name() != "accept-all" {
		t.Fatalf("empty policy name = %v, %v", p, err)
	}
	if _, err := NewPolicy("bouncer"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestQueueDepthCaps(t *testing.T) {
	p := &QueueDepth{PerDeviceDepth: 2, MaxAge: 10 * time.Minute}
	view := View{Devices: 2, ByClass: map[sched.Class]ClassLoad{
		sched.ClassDev: {Queued: 4}, // at the 2×2 cap
	}}
	dec := p.Admit(devReq(0), view)
	if dec.Outcome != Rejected || !strings.Contains(dec.Reason, "queue-depth") {
		t.Fatalf("depth cap did not reject: %+v", dec)
	}
	// One below the cap is accepted.
	view.ByClass[sched.ClassDev] = ClassLoad{Queued: 3}
	if dec := p.Admit(devReq(0), view); dec.Outcome != Accepted {
		t.Fatalf("below-cap dev rejected: %+v", dec)
	}
	// A stale backlog rejects even when shallow.
	view.ByClass[sched.ClassDev] = ClassLoad{Queued: 1, OldestAge: 11 * time.Minute}
	if dec := p.Admit(devReq(0), view); dec.Outcome != Rejected {
		t.Fatalf("age cap did not reject: %+v", dec)
	}
	// Production is never shed, whatever the view says.
	view.ByClass[sched.ClassProduction] = ClassLoad{Queued: 1000, OldestAge: time.Hour}
	if dec := p.Admit(Request{Class: sched.ClassProduction}, view); dec.Outcome != Accepted {
		t.Fatalf("production shed by queue-depth: %+v", dec)
	}
}

func TestTokenBucketRateAndRefill(t *testing.T) {
	p := NewTokenBucketWith(map[sched.Class]Quota{
		sched.ClassDev: {RatePerHour: 60, Burst: 2},
	})
	// The bucket starts full: the burst passes, then the class is held.
	if dec := p.Admit(devReq(0), View{}); dec.Outcome != Accepted {
		t.Fatalf("first dev job rejected: %+v", dec)
	}
	if dec := p.Admit(devReq(0), View{}); dec.Outcome != Accepted {
		t.Fatalf("second dev job rejected: %+v", dec)
	}
	dec := p.Admit(devReq(0), View{})
	if dec.Outcome != Rejected || !strings.Contains(dec.Reason, "token-bucket") {
		t.Fatalf("over-burst dev job not rejected: %+v", dec)
	}
	// 60/hour refills one token per minute.
	if dec := p.Admit(devReq(time.Minute), View{}); dec.Outcome != Accepted {
		t.Fatalf("refilled token not granted: %+v", dec)
	}
	if dec := p.Admit(devReq(time.Minute), View{}); dec.Outcome != Rejected {
		t.Fatalf("empty bucket accepted: %+v", dec)
	}
	// Unquota'd classes (production, test here) are unlimited.
	for i := 0; i < 100; i++ {
		if dec := p.Admit(Request{Class: sched.ClassProduction, Now: 0}, View{}); dec.Outcome != Accepted {
			t.Fatalf("production hit a bucket: %+v", dec)
		}
		if dec := p.Admit(Request{Class: sched.ClassTest, Now: 0}, View{}); dec.Outcome != Accepted {
			t.Fatalf("unquota'd test hit a bucket: %+v", dec)
		}
	}
}

func TestTokenBucketDeterministicReplay(t *testing.T) {
	run := func() []Outcome {
		p := NewTokenBucket()
		var out []Outcome
		for i := 0; i < 200; i++ {
			dec := p.Admit(devReq(time.Duration(i)*10*time.Second), View{})
			out = append(out, dec.Outcome)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical runs: %s vs %s", i, a[i], b[i])
		}
	}
}

// feedProductionWaits pushes n production wait observations of w seconds at
// time `at` into the guard.
func feedProductionWaits(g *SLOGuard, n int, w float64, at time.Duration) {
	for i := 0; i < n; i++ {
		g.Observe(Signal{Class: sched.ClassProduction, At: at, WaitSeconds: w, Slowdown: -1})
	}
}

func TestSLOGuardTiers(t *testing.T) {
	g := NewSLOGuard()
	view := View{ByClass: map[sched.Class]ClassLoad{}}

	// No signals: everything is accepted.
	if dec := g.Admit(devReq(0), view); dec.Outcome != Accepted {
		t.Fatalf("idle guard rejected dev: %+v", dec)
	}

	// Production p99 wait at half target: test is down-classed, dev passes.
	feedProductionWaits(g, 10, 30, time.Minute) // target 60s → pressure 0.5
	if dec := g.Admit(Request{Class: sched.ClassTest, Now: time.Minute}, view); dec.Outcome != Downgraded || dec.Class != sched.ClassDev {
		t.Fatalf("warn tier did not down-class test: %+v", dec)
	}
	if dec := g.Admit(devReq(time.Minute), view); dec.Outcome != Accepted {
		t.Fatalf("warn tier shed dev: %+v", dec)
	}

	// Breach (pressure ≥ 1): dev is shed, test still runs (as dev).
	feedProductionWaits(g, 20, 90, 2*time.Minute) // pressure 1.5
	if dec := g.Admit(devReq(2*time.Minute), view); dec.Outcome != Rejected {
		t.Fatalf("breach tier did not shed dev: %+v", dec)
	}
	if dec := g.Admit(Request{Class: sched.ClassTest, Now: 2 * time.Minute}, view); dec.Outcome != Downgraded {
		t.Fatalf("breach tier did not down-class test: %+v", dec)
	}

	// Deep breach (pressure ≥ 2): everything best-effort is shed.
	feedProductionWaits(g, 40, 200, 3*time.Minute) // pressure > 2
	if dec := g.Admit(Request{Class: sched.ClassTest, Now: 3 * time.Minute}, view); dec.Outcome != Rejected {
		t.Fatalf("deep breach did not shed test: %+v", dec)
	}

	// Production is never shed, even in deep breach.
	if dec := g.Admit(Request{Class: sched.ClassProduction, Now: 3 * time.Minute}, view); dec.Outcome != Accepted {
		t.Fatalf("production shed by slo-guard: %+v", dec)
	}

	// The window forgets: far past the 30m window the pressure decays to the
	// backlog-age term only, which is zero here.
	if dec := g.Admit(devReq(2*time.Hour), view); dec.Outcome != Accepted {
		t.Fatalf("expired window still shedding: %+v", dec)
	}
}

func TestSLOGuardBacklogAgeLeadingIndicator(t *testing.T) {
	g := NewSLOGuard()
	// No wait/slowdown samples at all — only a production job queued for
	// longer than the target. The guard must still react.
	view := View{ByClass: map[sched.Class]ClassLoad{
		sched.ClassProduction: {Queued: 1, OldestAge: 2 * time.Minute},
	}}
	if dec := g.Admit(devReq(time.Minute), view); dec.Outcome != Rejected {
		t.Fatalf("stale production backlog did not shed dev: %+v", dec)
	}
}

func TestSLOGuardIgnoresBestEffortSignals(t *testing.T) {
	g := NewSLOGuard()
	for i := 0; i < 100; i++ {
		g.Observe(Signal{Class: sched.ClassDev, At: time.Minute, WaitSeconds: 10000, Slowdown: 50})
	}
	if p := g.Pressure(time.Minute, View{}); p != 0 {
		t.Fatalf("best-effort signals moved the controller: pressure %g", p)
	}
}

func TestNewPolicyParameterizedSLOGuard(t *testing.T) {
	p, err := NewPolicy("slo-guard:wait=45s:warn=0.7:slowdown=2.5:window=15m:shed=3:min=5")
	if err != nil {
		t.Fatal(err)
	}
	g, ok := p.(*SLOGuard)
	if !ok {
		t.Fatalf("parameterized slo-guard built %T", p)
	}
	if g.WaitTarget != 45*time.Second || g.WarnFraction != 0.7 || g.SlowdownTarget != 2.5 ||
		g.Window != 15*time.Minute || g.ShedTestFactor != 3 || g.MinSamples != 5 {
		t.Fatalf("parameters not applied: %+v", g)
	}
	// The full spelling is the policy name, so two tunings stay apart in
	// sweep reports and telemetry.
	if want := "slo-guard:wait=45s:warn=0.7:slowdown=2.5:window=15m:shed=3:min=5"; g.Name() != want {
		t.Fatalf("Name() = %q, want %q", g.Name(), want)
	}
	// A bare slo-guard keeps the bare name and defaults.
	bare, err := NewPolicy("slo-guard")
	if err != nil {
		t.Fatal(err)
	}
	if bare.Name() != "slo-guard" {
		t.Fatalf("bare Name() = %q", bare.Name())
	}
	if bare.(*SLOGuard).WaitTarget != 60*time.Second {
		t.Fatalf("bare wait target = %v", bare.(*SLOGuard).WaitTarget)
	}
}

func TestNewPolicyParameterErrors(t *testing.T) {
	for _, name := range []string{
		"slo-guard:wait=0s",     // non-positive target
		"slo-guard:wait=banana", // unparseable duration
		"slo-guard:warn=1.5",    // fraction out of range
		"slo-guard:shed=0.5",    // below 1
		"slo-guard:min=0",       // non-positive
		"slo-guard:wait",        // not key=value
		"slo-guard:p99=10s",     // unknown key
		"token-bucket:rate=5",   // non-parameterizable policy
		"accept-all:x=1",        // non-parameterizable policy
	} {
		if _, err := NewPolicy(name); err == nil {
			t.Errorf("NewPolicy(%q) accepted", name)
		}
	}
}

func TestParameterizedSLOGuardTunedBehavior(t *testing.T) {
	// With warn dropped to 0.2 and the wait target halved, a 15s production
	// wait window (p99 = 15) yields pressure 15/30 = 0.5 ≥ warn, so test work
	// is down-classed while the default controller would accept it.
	tuned, err := NewPolicy("slo-guard:wait=30s:warn=0.2")
	if err != nil {
		t.Fatal(err)
	}
	feed := func(p Policy) {
		o := p.(Observer)
		for i := 0; i < 5; i++ {
			o.Observe(Signal{Class: sched.ClassProduction, At: time.Minute, WaitSeconds: 15})
		}
	}
	feed(tuned)
	req := Request{Class: sched.ClassTest, Now: time.Minute}
	if dec := tuned.Admit(req, View{}); dec.Outcome != Downgraded {
		t.Fatalf("tuned guard at pressure 0.5 = %+v, want downgrade", dec)
	}
	def := NewSLOGuard()
	feed(def)
	if dec := def.Admit(req, View{}); dec.Outcome != Accepted {
		t.Fatalf("default guard at pressure 0.25 = %+v, want accept", dec)
	}
}
