package daemon

// The submit→dispatch path is an explicit four-stage pipeline, each stage a
// pluggable policy behind its own interface:
//
//	submission                                                   submit.go
//	    │   validate — could any partition run this?
//	    ▼
//	[1] admission   admission.Policy — who enters the system, at what class
//	    │               (registry admission.Policies; rejected jobs terminate
//	    │                here with a reason)
//	    ▼
//	[2] routing     Router — which partition
//	    │               (registry Routers; pins skip the router but never
//	    │                the door)
//	    ▼
//	[3] queueing    OrderPolicy over sched.ClassQueue — what order within
//	    │               the partition (registry Orders; class priority is
//	    │                fixed, the order acts within class), composed with a
//	    │               PriorityPolicy — what urgency (registry Priorities)
//	    ▼
//	[4] dispatch    per-partition dispatch loop — when to run, whom to   dispatch.go
//	    │               preempt (production preempts lower classes; one
//	    │                loop per partition, all inside the world)
//	    ▼
//	    settle      device task → finish or requeue; cancel           settle.go
//	    ▼
//	    terminal    one transition for every ending (job.go), then   retention.go
//	                    out of the table by one rule
//
// Submit walks stages 1–3 as named steps — validate, admit, route, enqueue —
// over records minted by the one constructor in job.go; status.go is the read
// side. This file holds the stage policies' interfaces and the admission
// stage's view and feedback plumbing.
//
// Each registry (internal/policy) is the one list of its axis's policy names
// and parameters; NewRouter, NewOrder, NewPriority and admission.NewPolicy are
// lookups on them.
//
// Stages 2–4 were already independent policy axes; stage 1 closes the loop:
// the SLO signals dispatch produces (waits, slowdowns) feed back into
// admission, which is the only stage that can act *before* overload damages
// production latency.

import (
	"fmt"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/policy"
	"hpcqc/internal/sched"
	"hpcqc/internal/telemetry"
)

// --- queueing stage ---

// OrderPolicy is the queueing stage's pluggable within-class order: it
// removes the next item to dispatch from a partition queue. Class priority
// is owned by sched.ClassQueue itself; an order only chooses among items of
// the highest non-empty class.
type OrderPolicy interface {
	// Name identifies the order for status reports and sweep axes.
	Name() string
	// Pop removes the next item. usage supplies the per-user accumulated
	// QPU-seconds, the daemon's live map: read it, never write or keep it.
	Pop(q *sched.ClassQueue, usage func() map[string]float64) *sched.Item
}

// fifoOrder is plain arrival order within a class: push order, so a
// preempted-and-requeued job joins the tail of its class.
type fifoOrder struct{}

func (fifoOrder) Name() string { return "fifo" }
func (fifoOrder) Pop(q *sched.ClassQueue, _ func() map[string]float64) *sched.Item {
	return q.Pop()
}

// fairShareOrder runs the least-served user first within a class (FIFO on
// ties) — the "fairer resource sharing" extension the paper's discussion
// names. Each user is a lane of the queue's rank index, weighted at pop time
// by the QPU-seconds the user has been served.
type fairShareOrder struct{}

func (fairShareOrder) Name() string { return "fair-share" }
func (fairShareOrder) Pop(q *sched.ClassQueue, usage func() map[string]float64) *sched.Item {
	return q.PopRanked(fairShareRank, usage())
}

// shortestFirstOrder orders by the expected QPU duration hint (§3.5),
// shortest first, FIFO on ties.
type shortestFirstOrder struct{}

func (shortestFirstOrder) Name() string { return "shortest-first" }
func (shortestFirstOrder) Pop(q *sched.ClassQueue, _ func() map[string]float64) *sched.Item {
	return q.PopRanked(shortestFirstRank, nil)
}

// The built-in orders as rankers (Lane and Ord only; the priority axis
// contributes Pri, see Daemon.ranker).
var (
	fifoRank      = &sched.Ranker{}
	fairShareRank = &sched.Ranker{
		Lane: func(it *sched.Item) string { return it.Payload.(*Job).User },
		Ord:  func(it *sched.Item) [2]int64 { return [2]int64{int64(it.Enqueued)} },
	}
	shortestFirstRank = &sched.Ranker{Ord: sched.ShortestExpectedKey}
)

// rankedOrder is the composition hook between the queueing and priority
// axes: an order that states itself as a sched.Ranker composes with any
// priority — indexed when the priority has a static key too, and as the
// score tie-break (scoreTie) when it can only score. All built-in
// orders implement it; under a non-constant priority a custom OrderPolicy
// that does not is ignored in favour of push-order tie-breaking.
type rankedOrder interface {
	rank() *sched.Ranker
}

func (fifoOrder) rank() *sched.Ranker          { return fifoRank }
func (fairShareOrder) rank() *sched.Ranker     { return fairShareRank }
func (shortestFirstOrder) rank() *sched.Ranker { return shortestFirstRank }

// scoreTie states an order's rank — its lane under weight, then its key — as
// the pairwise tie-break PopByScore takes; equal again falls to the earlier
// queued, which is PopByScore's own last resort.
func scoreTie(r *sched.Ranker, weight map[string]float64) func(a, b *sched.Item) bool {
	return func(a, b *sched.Item) bool {
		if r.Lane != nil {
			if wa, wb := weight[r.Lane(a)], weight[r.Lane(b)]; wa != wb {
				return wa < wb
			}
		}
		if r.Ord != nil {
			ka, kb := r.Ord(a), r.Ord(b)
			return ka[0] < kb[0] || (ka[0] == kb[0] && ka[1] < kb[1])
		}
		return false
	}
}

// Orders is the queueing stage's axis of within-class orders — what the
// loadgen and CLI layers call the scheduler axis. None takes parameters.
var Orders = policy.NewRegistry[OrderPolicy]("daemon: scheduler")

func init() {
	Orders.AddDefault(func() OrderPolicy { return fifoOrder{} })
	Orders.Add(func() OrderPolicy { return fairShareOrder{} })
	Orders.Add(func() OrderPolicy { return shortestFirstOrder{} })
}

// NewOrder builds a within-class order from its spec — the lookup behind the
// loadgen scheduler axis.
func NewOrder(spec string) (OrderPolicy, error) { return Orders.New(spec) }

// --- admission stage ---

// RejectedError is Submit's error when the admission stage sheds the job.
// Job is a copy of the terminal rejected record (the record itself stays
// queryable by its session like any other job); Reason is the policy
// rationale. The HTTP layer renders it as 429 Too Many Requests.
type RejectedError struct {
	Job    Job
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("daemon: job %s rejected by admission: %s", e.Job.ID, e.Reason)
}

// admissionView refills the fleet-wide load snapshot an admission decision
// consults — one ClassLoads call per partition — into the one view the
// daemon owns: its ByClass map is cleared and reused, so a decision
// allocates nothing, and the view is good until the next decision (Admit
// does not retain it). Every earlier admitted job was pushed before this
// submission entered the world, so the view counts all of them and depth
// caps hold exactly under concurrent intake.
func (d *Daemon) admissionView() admission.View {
	view := &d.admitView
	clear(view.ByClass)
	view.Devices, view.Running = len(d.fleet), 0
	now := d.cfg.Clock.Now()
	for _, ds := range d.fleet {
		counts, oldest, has, qpu := ds.queue.ClassLoads()
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			load := view.ByClass[c]
			load.Queued += counts[c]
			load.QueuedQPUSeconds += qpu[c].Seconds()
			if has[c] {
				if age := now - oldest[c]; age > load.OldestAge {
					load.OldestAge = age
				}
			}
			view.ByClass[c] = load
		}
		if ds.running != nil {
			view.Running++
		}
	}
	return *view
}

// admitStage runs stage 1 for one submission: build the view (skipped for
// policies that declare themselves Viewless), ask the policy, and count the
// verdict.
func (d *Daemon) admitStage(req SubmitRequest, user string) admission.Decision {
	var view admission.View
	if !d.viewless {
		view = d.admissionView()
	}
	dec := d.admitter.Admit(admission.Request{
		Class:              req.Class,
		Pattern:            req.Pattern,
		Source:             defaultSource(req.Source),
		User:               user,
		Pinned:             req.Device != "",
		ExpectedQPUSeconds: req.ExpectedQPUSeconds,
		DeadlineSeconds:    req.DeadlineSeconds,
		Now:                d.cfg.Clock.Now(),
	}, view)
	if d.mAdmission != nil {
		b := d.bAdmit[req.Class][dec.Outcome]
		if b == nil { // an outcome NewDaemon did not know: counted all the same
			b = d.mAdmission.Bind(telemetry.Labels{"class": req.Class.String(), "outcome": string(dec.Outcome)})
		}
		b.Inc(1)
		if dec.Outcome == admission.Rejected {
			d.bAdmitRej[req.Class].Inc(1)
		}
	}
	return dec
}

// retryAfterHint is the queue-drain estimate attached to rejections: the
// queued expected-QPU backlog at the rejected class and above, spread evenly
// across the fleet's partitions — roughly how long until the work ahead of a
// resubmission drains, assuming no new arrivals. It is a hint for
// well-behaved retrying clients (the frontier report models them), not a
// guarantee: clamped to [1s, 24h] so it is always a usable backoff. It reads
// the decision's own view (built here for a Viewless policy, which decided
// without one).
func (d *Daemon) retryAfterHint(class sched.Class) float64 {
	if d.viewless {
		d.admissionView()
	}
	view := &d.admitView
	var backlog float64
	for c := class; c <= sched.ClassProduction; c++ {
		backlog += view.ByClass[c].QueuedQPUSeconds
	}
	devs := view.Devices
	if devs < 1 {
		devs = 1
	}
	hint := backlog / float64(devs)
	if hint < 1 {
		hint = 1
	}
	if max := (24 * time.Hour).Seconds(); hint > max {
		hint = max
	}
	return hint
}

// feed sends one SLO signal back into the admission policy (stage 4 → stage
// 1): a started job's queue wait, or a completed job's slowdown with
// WaitSeconds −1. Observers run inside the world and must not call back in.
func (d *Daemon) feed(sig admission.Signal) {
	if d.admitObserver != nil {
		d.admitObserver.Observe(sig)
	}
}
