// Package admission is the first stage of the daemon's submit pipeline
// (admission → routing → queueing → dispatch): it decides, per submission,
// whether the job enters the system at all — and at what class — before any
// routing or queueing happens. Admission is the fourth composable policy axis
// next to routing (which partition), queueing (what order) and dispatch
// (preemption): a shared quantum-HPC fleet must stay responsive for
// production work even when best-effort traffic floods it, and rejecting (or
// down-classing) work at the door is the only defense that acts *before* the
// damage is done — preemption can only clean up afterwards.
//
// Policies are deterministic functions of the submission, the fleet load
// view and the simulation clock (plus, for SLOGuard, the SLO signals fed
// back through Observer), so trace replays with admission enabled remain
// bit-reproducible. Production-class work is never shed by any policy in
// this package; admission defends production *by* shedding best-effort work.
package admission

import (
	"time"

	"hpcqc/internal/policy"
	"hpcqc/internal/sched"
)

// Outcome is the admission stage's verdict on one submission.
type Outcome string

const (
	// Accepted lets the job proceed to routing unchanged.
	Accepted Outcome = "accepted"
	// Downgraded lets the job proceed at a lower class (test → dev), keeping
	// it runnable while taking it out of production's way.
	Downgraded Outcome = "downgraded"
	// Rejected sheds the job: it becomes a terminal rejected record and
	// never reaches a queue.
	Rejected Outcome = "rejected"
)

// Request is the submission as the admission stage sees it: everything known
// before routing. ExpectedQPUSeconds is always resolved by the daemon before
// admission — the submitter's declared hint when given, otherwise the
// daemon's own estimate from the validated program — so duration-aware
// policies can rely on it.
type Request struct {
	Class   sched.Class
	Pattern sched.Pattern
	Source  string
	User    string
	// Pinned marks submissions that name an explicit target partition.
	// Admission applies to pinned work too: a pin bypasses the router, not
	// the door.
	Pinned             bool
	ExpectedQPUSeconds float64
	// DeadlineSeconds is the submitter's completion deadline relative to
	// now (0 = none). Deadline-aware policies may shed best-effort work
	// whose predicted completion already overshoots it.
	DeadlineSeconds float64
	// Now is the simulation time of the submission — the only clock a
	// policy may consult (wall-clock reads would break replay determinism).
	Now time.Duration
}

// ClassLoad is one class's slice of the fleet load view.
type ClassLoad struct {
	// Queued counts jobs of this class waiting across all partitions.
	Queued int
	// OldestAge is the age of the oldest queued job of this class (zero
	// when the class has no backlog) — the staleness signal behind age caps.
	OldestAge time.Duration
	// QueuedQPUSeconds is the sum of expected QPU-seconds queued at this
	// class across all partitions — the drain-time numerator behind
	// Retry-After hints on rejections.
	QueuedQPUSeconds float64
}

// View is the fleet-wide load snapshot a decision may consult. The daemon
// assembles it inside its simulated world, where submissions are serialized,
// so every view counts the jobs admitted before it.
type View struct {
	// Devices is the fleet partition count; depth caps scale with it.
	Devices int
	// Running counts jobs executing fleet-wide.
	Running int
	// ByClass maps each class to its backlog.
	ByClass map[sched.Class]ClassLoad
}

// Decision is the stage output. Class is the effective class the job
// proceeds at (equal to the request class unless Downgraded); Reason is the
// human-readable policy rationale for non-accept outcomes, surfaced through
// the job record, the HTTP 429 body and telemetry.
type Decision struct {
	Outcome Outcome
	Class   sched.Class
	Reason  string
}

// Accept is the trivial decision for a request class.
func Accept(c sched.Class) Decision { return Decision{Outcome: Accepted, Class: c} }

// Policy decides admission for one submission. Implementations may keep
// internal state (token levels, signal windows) and need no lock: the daemon
// calls Admit and Observe from inside its simulated world, one call at a
// time. The view is
// lent for the call only: the daemon refills the same ByClass map for its
// next decision, so a Policy must not retain it (copy what it needs to keep).
type Policy interface {
	// Name identifies the policy in flags, reports and telemetry.
	Name() string
	// Admit decides one submission against the current fleet view.
	Admit(req Request, view View) Decision
}

// Signal is one SLO observation fed back into the admission stage: a job's
// queue wait (measured at first start) or completed-job slowdown
// (turnaround / expected service). The daemon feeds these from its dispatch
// path; SLOGuard folds them into its rolling window. This is the same
// wait+slowdown signal pair the loadgen SLO analyzer distills into p99
// reports — admission consumes it live instead of post-hoc.
type Signal struct {
	Class sched.Class
	// At is the simulation time of the observation.
	At time.Duration
	// WaitSeconds is the queue wait for started jobs; negative when the
	// signal carries only a slowdown.
	WaitSeconds float64
	// Slowdown is turnaround over expected service for completed jobs; zero
	// or negative when unknown.
	Slowdown float64
}

// Observer is implemented by policies that consume SLO feedback (SLOGuard).
// Observe runs inside the daemon's world: it must return quickly and must not
// call back into the daemon.
type Observer interface {
	Observe(Signal)
}

// Viewless marks policies whose Admit never reads the View. Assembling the
// fleet load snapshot costs O(total backlog) per submission (every queue is
// scanned for depth and oldest age), so the daemon skips it for policies
// that declare they decide from the request and clock alone.
type Viewless interface {
	Viewless()
}

// Viewless implements the marker: accept-all decides from nothing at all.
func (AcceptAll) Viewless() {}

// AcceptAll is the default policy: today's behavior, every valid submission
// enters the system.
type AcceptAll struct{}

// Name implements Policy.
func (AcceptAll) Name() string { return "accept-all" }

// Admit implements Policy.
func (AcceptAll) Admit(req Request, _ View) Decision { return Accept(req.Class) }

// Policies is the admission axis. Only slo-guard takes parameters (see
// SLOGuard); a parameterized policy keeps the full spelling as its Name(), so
// sweep cells comparing two slo-guard tunings stay distinguishable in reports.
var Policies = policy.NewRegistry[Policy]("admission: policy")

func init() {
	Policies.AddDefault(func() Policy { return AcceptAll{} })
	Policies.Add(func() Policy { return NewQueueDepth() })
	Policies.Add(func() Policy { return NewTokenBucket() })
	Policies.Register(NewSLOGuard().Name(),
		"wait=DUR:slowdown=F:window=DUR:warn=F:shed=F:min=N:lateness=F", newSLOGuardFromSpec)
}

// NewPolicy builds an admission policy from its spec — the lookup behind
// qcsd's -admission flag and the loadgen sweep axis.
func NewPolicy(spec string) (Policy, error) { return Policies.New(spec) }

// AllPolicies lists the policy names a sweep axis expands "all" to.
func AllPolicies() []string { return Policies.Names() }
