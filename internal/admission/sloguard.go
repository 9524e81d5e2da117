package admission

import (
	"fmt"
	"sort"
	"time"

	"hpcqc/internal/policy"
	"hpcqc/internal/sched"
)

// SLOGuard is a feedback controller over the production SLO: the daemon
// feeds it every production job's queue wait and completed slowdown (the
// same signals the loadgen SLO analyzer reports as p99 attainment), it keeps
// a rolling window of them, and it sheds or down-classes best-effort work
// when the window says production p99 targets are at risk. Production is
// never shed — the whole point of the controller is to spend best-effort
// capacity to protect it.
//
// The controller computes a scalar "pressure" each decision: the worst of
// window-p99(wait)/WaitTarget, window-p99(slowdown)/SlowdownTarget, and the
// current oldest queued production job's age over WaitTarget (the leading
// indicator when production samples are sparse). Escalation is tiered:
//
//	pressure < WarnFraction            accept everything
//	WarnFraction ≤ pressure < 1        down-class test → dev
//	1 ≤ pressure < ShedTestFactor      shed dev, down-class test → dev
//	ShedTestFactor ≤ pressure          shed dev and test
type SLOGuard struct {
	// WaitTarget is the production p99 queue-wait target (default 60s).
	WaitTarget time.Duration
	// SlowdownTarget is the production p99 slowdown target (default 3×).
	SlowdownTarget float64
	// Window is the rolling signal window (default 30 minutes).
	Window time.Duration
	// WarnFraction is the pressure at which test work is down-classed
	// (default 0.5).
	WarnFraction float64
	// ShedTestFactor is the pressure at which even test work is shed
	// (default 2.0).
	ShedTestFactor float64
	// MinSamples is how many window samples a p99 needs before it is
	// trusted (default 3); below it only the backlog-age term acts.
	MinSamples int
	// LatenessFactor arms the deadline door: a best-effort submission that
	// declares a deadline is shed when its predicted completion (its class's
	// oldest queued age as the wait proxy, plus its own expected service)
	// exceeds LatenessFactor × deadline — admitting work that already
	// cannot finish in time only burns QPU seconds production could use.
	// 1.0 by default; 0 disables the door. Requests without a deadline are
	// never affected.
	LatenessFactor float64

	// label is the full spelling the controller was built from (e.g.
	// "slo-guard:wait=45s:warn=0.7"), so reports and telemetry tell tunings
	// apart.
	label string

	waits []signalPoint
	slows []signalPoint
	// scratch is p99's sort buffer, reused by every decision.
	scratch []float64
}

type signalPoint struct {
	at time.Duration
	v  float64
}

// NewSLOGuard returns the controller with default targets.
func NewSLOGuard() *SLOGuard {
	return &SLOGuard{
		WaitTarget:     60 * time.Second,
		SlowdownTarget: 3,
		Window:         30 * time.Minute,
		WarnFraction:   0.5,
		ShedTestFactor: 2,
		MinSamples:     3,
		LatenessFactor: 1,
		label:          "slo-guard",
	}
}

// Name implements Policy.
func (p *SLOGuard) Name() string { return p.label }

// newSLOGuardFromSpec builds the controller a spec tunes, e.g.
// "slo-guard:wait=45s:warn=0.7": one key per exported field, the rest keep
// their defaults.
func newSLOGuardFromSpec(s *policy.Spec) (Policy, error) {
	p := NewSLOGuard()
	p.label = s.String()
	err := s.Apply(
		policy.Duration("wait", policy.Positive, policy.Into(&p.WaitTarget)),
		policy.Float("slowdown", policy.Positive, policy.Into(&p.SlowdownTarget)),
		policy.Duration("window", policy.Positive, policy.Into(&p.Window)),
		policy.Float("warn", policy.Fraction, policy.Into(&p.WarnFraction)),
		policy.Float("shed", policy.AtLeastOne, policy.Into(&p.ShedTestFactor)),
		policy.Int("min", policy.AtLeastOne, policy.Into(&p.MinSamples)),
		// 0 disables the deadline door.
		policy.Float("lateness", policy.NonNegative, policy.Into(&p.LatenessFactor)),
	)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Observe implements Observer: only production signals steer the controller.
// Window-expired samples are pruned here as well as in Pressure, so a
// production-only traffic mix (which never triggers an Admit pressure read)
// cannot grow the signal slices without bound.
func (p *SLOGuard) Observe(sig Signal) {
	if sig.Class != sched.ClassProduction {
		return
	}
	cutoff := sig.At - p.Window
	if sig.WaitSeconds >= 0 {
		p.waits = append(prune(p.waits, cutoff), signalPoint{at: sig.At, v: sig.WaitSeconds})
	}
	if sig.Slowdown > 0 {
		p.slows = append(prune(p.slows, cutoff), signalPoint{at: sig.At, v: sig.Slowdown})
	}
}

// prune drops window-expired samples.
func prune(points []signalPoint, cutoff time.Duration) []signalPoint {
	i := 0
	for i < len(points) && points[i].at < cutoff {
		i++
	}
	return points[i:]
}

// p99 is the nearest-rank 99th percentile of the window samples, sorted in
// p.scratch.
func (p *SLOGuard) p99(points []signalPoint) float64 {
	if len(points) == 0 {
		return 0
	}
	vs := p.scratch[:0]
	for _, pt := range points {
		vs = append(vs, pt.v)
	}
	p.scratch = vs
	sort.Float64s(vs)
	i := int(0.99*float64(len(vs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

// Pressure reports the current controller pressure (1.0 = production p99 at
// target) given the fleet view at `now`. Exposed for tests and telemetry.
func (p *SLOGuard) Pressure(now time.Duration, view View) float64 {
	cutoff := now - p.Window
	p.waits = prune(p.waits, cutoff)
	p.slows = prune(p.slows, cutoff)
	pressure := 0.0
	if len(p.waits) >= p.MinSamples && p.WaitTarget > 0 {
		if f := p.p99(p.waits) / p.WaitTarget.Seconds(); f > pressure {
			pressure = f
		}
	}
	if len(p.slows) >= p.MinSamples && p.SlowdownTarget > 0 {
		if f := p.p99(p.slows) / p.SlowdownTarget; f > pressure {
			pressure = f
		}
	}
	if p.WaitTarget > 0 {
		// Leading indicator: a production job already waiting near the
		// target means the window quantiles are about to breach.
		if age := view.ByClass[sched.ClassProduction].OldestAge; age > 0 {
			if f := age.Seconds() / p.WaitTarget.Seconds(); f > pressure {
				pressure = f
			}
		}
	}
	return pressure
}

// Admit implements Policy.
func (p *SLOGuard) Admit(req Request, view View) Decision {
	if req.Class == sched.ClassProduction {
		return Accept(req.Class)
	}
	// Deadline door: predicted lateness at the front of the pipeline. The
	// class's oldest queued age is the wait proxy — a new arrival queues
	// behind work that has already waited that long — and the job then still
	// needs its own service time.
	if p.LatenessFactor > 0 && req.DeadlineSeconds > 0 {
		predicted := view.ByClass[req.Class].OldestAge.Seconds() + req.ExpectedQPUSeconds
		if predicted > req.DeadlineSeconds*p.LatenessFactor {
			return Decision{
				Outcome: Rejected,
				Class:   req.Class,
				Reason: fmt.Sprintf("slo-guard: predicted completion %.0fs overshoots the %.0fs deadline",
					predicted, req.DeadlineSeconds),
			}
		}
	}
	pressure := p.Pressure(req.Now, view)
	switch {
	case pressure >= p.ShedTestFactor:
		return Decision{
			Outcome: Rejected,
			Class:   req.Class,
			Reason:  fmt.Sprintf("slo-guard: production p99 breached (pressure %.2f), shedding all best-effort", pressure),
		}
	case pressure >= 1:
		if req.Class == sched.ClassTest {
			return Decision{
				Outcome: Downgraded,
				Class:   sched.ClassDev,
				Reason:  fmt.Sprintf("slo-guard: production p99 breached (pressure %.2f), test down-classed to dev", pressure),
			}
		}
		return Decision{
			Outcome: Rejected,
			Class:   req.Class,
			Reason:  fmt.Sprintf("slo-guard: production p99 breached (pressure %.2f), shedding dev", pressure),
		}
	case pressure >= p.WarnFraction && p.WarnFraction > 0:
		if req.Class == sched.ClassTest {
			return Decision{
				Outcome: Downgraded,
				Class:   sched.ClassDev,
				Reason:  fmt.Sprintf("slo-guard: production p99 at risk (pressure %.2f), test down-classed to dev", pressure),
			}
		}
		return Accept(req.Class)
	default:
		return Accept(req.Class)
	}
}
