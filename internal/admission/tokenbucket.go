package admission

import (
	"fmt"
	"time"

	"hpcqc/internal/sched"
)

// Quota is one class's token bucket: tokens refill continuously at
// RatePerHour up to Burst, and each accepted submission spends one.
type Quota struct {
	RatePerHour float64
	Burst       float64
}

// TokenBucket enforces per-class rate quotas on best-effort traffic: each
// class refills a token bucket on the simulation clock, so a class may burst
// up to its bucket size but is held to its long-run rate. Production has no
// bucket — it is never shed. Refill is driven entirely by Request.Now, so
// replays are deterministic.
type TokenBucket struct {
	quotas map[sched.Class]Quota
	level  map[sched.Class]float64
	last   map[sched.Class]time.Duration
	primed map[sched.Class]bool
}

// NewTokenBucket returns the policy with default quotas: dev at 120 jobs/hour
// (burst 30), test at 60 jobs/hour (burst 15). The defaults sit above the
// steady-state best-effort rates of a production-shaped mix but below its
// burst peaks, so quotas bite exactly when a campaign floods the intake.
func NewTokenBucket() *TokenBucket {
	return NewTokenBucketWith(map[sched.Class]Quota{
		sched.ClassDev:  {RatePerHour: 120, Burst: 30},
		sched.ClassTest: {RatePerHour: 60, Burst: 15},
	})
}

// NewTokenBucketWith returns a policy with explicit quotas. Classes without
// an entry (always including production) are unlimited.
func NewTokenBucketWith(quotas map[sched.Class]Quota) *TokenBucket {
	return &TokenBucket{
		quotas: quotas,
		level:  make(map[sched.Class]float64, len(quotas)),
		last:   make(map[sched.Class]time.Duration, len(quotas)),
		primed: make(map[sched.Class]bool, len(quotas)),
	}
}

// Name implements Policy.
func (p *TokenBucket) Name() string { return "token-bucket" }

// Viewless implements the marker: buckets refill from the clock alone.
func (p *TokenBucket) Viewless() {}

// Admit implements Policy.
func (p *TokenBucket) Admit(req Request, _ View) Decision {
	if req.Class == sched.ClassProduction {
		return Accept(req.Class)
	}
	quota, limited := p.quotas[req.Class]
	if !limited || quota.RatePerHour <= 0 {
		return Accept(req.Class)
	}
	if !p.primed[req.Class] {
		// First sighting of the class: start from a full bucket.
		p.primed[req.Class] = true
		p.level[req.Class] = quota.Burst
		p.last[req.Class] = req.Now
	}
	if dt := req.Now - p.last[req.Class]; dt > 0 {
		p.level[req.Class] += dt.Hours() * quota.RatePerHour
		if p.level[req.Class] > quota.Burst {
			p.level[req.Class] = quota.Burst
		}
	}
	p.last[req.Class] = req.Now
	if p.level[req.Class] < 1 {
		return Decision{
			Outcome: Rejected,
			Class:   req.Class,
			Reason: fmt.Sprintf("token-bucket: %s quota exhausted (%.0f jobs/hour, burst %.0f)",
				req.Class, quota.RatePerHour, quota.Burst),
		}
	}
	p.level[req.Class]--
	return Accept(req.Class)
}
