package daemon

// The priority axis is the fourth pluggable stage knob: where an OrderPolicy
// fixes a static within-class order (arrival, user fairness, duration hint),
// a PriorityPolicy re-scores every queued item at each dispatch tick, so the
// order can *change while jobs wait* — the property deadline urgency and
// anti-starvation aging need and no static comparator can express. The two
// axes compose instead of competing: the score decides, and the order
// policy's comparator breaks score ties, so `slo-urgency × fair-share` means
// "most urgent first, least-served user among equally urgent".
//
// The `constant` policy is the identity element: every item scores the same
// and contributes no rank key, so the order policy alone decides.
//
// Every built-in score has the shape f(item) − g(now): `now` is common to all
// queued items and cancels out of any comparison, so the *ranking* is static
// even though the scores move. The built-ins state f as an exact integer key
// (rankedPriority) and the daemon dispatches them through the queue's rank
// index; Score remains the contract for custom policies, which dispatch by
// linear scan.

import (
	"math"
	"time"

	"hpcqc/internal/policy"
	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

// PriorityPolicy is the dynamic-urgency scheduling axis: a per-item score
// recomputed at each dispatch tick. The highest score within the highest
// non-empty class dispatches next; the active OrderPolicy breaks ties.
type PriorityPolicy interface {
	// Name identifies the policy for status reports and sweep axes,
	// including any inline parameters (e.g. "slo-urgency:deadline=120s").
	Name() string
	// Score rates a queued item at sim time now; higher is more urgent.
	// Called at a pop, once per queued item of the winning class — it must
	// be fast, pure, and must not call back into the daemon or the queue.
	Score(it *sched.Item, now time.Duration) float64
}

// rankedPriority is implemented by priorities whose ranking is static:
// rankKey returns the sched.Ranker.Pri key — lower is more urgent, and
// ordering by it must equal ordering by descending Score at any one `now` —
// or nil when every item ranks equal.
type rankedPriority interface {
	rankKey() func(it *sched.Item) int64
}

// noDeadlineScore sorts items without any resolvable deadline behind every
// item that has one, for the deadline-driven policies. Equal among
// themselves, so the order policy's tie-break takes over.
const noDeadlineScore = -math.MaxFloat64

// constantPriority is the default identity policy: all items score equally,
// leaving the order policy in sole control.
type constantPriority struct{}

func (constantPriority) Name() string                             { return "constant" }
func (constantPriority) Score(*sched.Item, time.Duration) float64 { return 0 }
func (constantPriority) rankKey() func(*sched.Item) int64         { return nil }

// agePriority scores items by time spent queued — pure anti-starvation: the
// longest-waiting item runs first regardless of how it arrived. Within a
// single class this degrades to seniority order; its value is keeping
// preemption-requeued jobs (whose Enqueued stays the original submit time)
// ahead of younger arrivals.
type agePriority struct{}

func (agePriority) Name() string { return "age" }
func (agePriority) Score(it *sched.Item, now time.Duration) float64 {
	return (now - it.Enqueued).Seconds()
}
func (agePriority) rankKey() func(*sched.Item) int64 {
	return func(it *sched.Item) int64 { return int64(it.Enqueued) }
}

// deadlinePriority implements both deadline-driven policies over the same
// deadline resolution: an item's explicit Deadline when it carries one,
// otherwise the per-class fallback contract applied to its enqueue time.
//
//	edf         score = −deadline: classic earliest-deadline-first.
//	slo-urgency score = −slack, slack = deadline − now − expected service:
//	            least-slack-first. Unlike EDF the score keeps rising once a
//	            job is late (slack < 0), and jobs with equal deadlines but
//	            longer service sort ahead — the shape that converts urgency
//	            into deadline hits when service times are heterogeneous.
type deadlinePriority struct {
	label    string
	edf      bool
	fallback map[sched.Class]workload.DeadlineSpec
}

func (p *deadlinePriority) Name() string { return p.label }

// deadline resolves the absolute sim-time deadline for an item, or 0 when
// neither the item nor the class contract provides one.
func (p *deadlinePriority) deadline(it *sched.Item) time.Duration {
	if it.Deadline > 0 {
		return it.Deadline
	}
	if spec, ok := p.fallback[it.Class]; ok {
		if off := spec.Offset(it.ExpectedQPU); off > 0 {
			return it.Enqueued + off
		}
	}
	return 0
}

func (p *deadlinePriority) Score(it *sched.Item, now time.Duration) float64 {
	dl := p.deadline(it)
	if dl <= 0 {
		return noDeadlineScore
	}
	if p.edf {
		return -dl.Seconds()
	}
	return -(dl - now - it.ExpectedQPU).Seconds()
}

func (p *deadlinePriority) rankKey() func(*sched.Item) int64 {
	return func(it *sched.Item) int64 {
		dl := p.deadline(it)
		switch {
		case dl <= 0:
			return math.MaxInt64
		case p.edf:
			return int64(dl)
		}
		return int64(dl - it.ExpectedQPU)
	}
}

// newDeadlinePriority is the constructor both deadline-driven policies share.
// Their parameters set the fallback deadline contracts: `deadline=DUR`
// replaces every class contract with a flat DUR allowance; `production=DUR`,
// `test=DUR`, `dev=DUR` replace one class each (a DUR of 0 leaves that class
// without a fallback), applied in spec order. Explicit per-job deadlines always
// win over any fallback. The full spelling is the policy's Name.
func newDeadlinePriority(edf bool) func(*policy.Spec) (PriorityPolicy, error) {
	return func(s *policy.Spec) (PriorityPolicy, error) {
		p := &deadlinePriority{label: s.String(), edf: edf, fallback: workload.DefaultDeadlines()}
		params := []policy.Param{policy.Duration("deadline", policy.NonNegative, func(d time.Duration) {
			for c := range p.fallback {
				p.fallback[c] = workload.DeadlineSpec{Base: d}
			}
		})}
		for c := sched.ClassProduction; c >= sched.ClassDev; c-- {
			params = append(params, policy.Duration(c.String(), policy.NonNegative, func(d time.Duration) {
				p.fallback[c] = workload.DeadlineSpec{Base: d}
			}))
		}
		if err := s.Apply(params...); err != nil {
			return nil, err
		}
		return p, nil
	}
}

// Priorities is the dynamic-urgency axis; constant, the identity, is its
// default.
var Priorities = policy.NewRegistry[PriorityPolicy]("daemon: priority")

func init() {
	const deadlineParams = "deadline=DUR:production=DUR:test=DUR:dev=DUR"
	Priorities.AddDefault(func() PriorityPolicy { return constantPriority{} })
	Priorities.Add(func() PriorityPolicy { return agePriority{} })
	Priorities.Register("slo-urgency", deadlineParams, newDeadlinePriority(false))
	Priorities.Register("edf", deadlineParams, newDeadlinePriority(true))
}

// NewPriority builds a priority policy from its spec — the lookup behind the
// loadgen priority axis and qcsd's -priority flag.
func NewPriority(spec string) (PriorityPolicy, error) { return Priorities.New(spec) }
