// Package hybrid is the hybrid-job simulator behind the Table 1 reproduction
// (internal/experiments is its one production importer): Orchestrator, a
// discrete-event executor for jobs of alternating quantum and classical
// segments on one simulated QPU under selectable policies; MalleablePool, the
// classical worker pool of the §2.4 malleability ablation; and Generator, the
// seeded producer of the three Table 1 job shapes. It is deliberately apart
// from internal/sched, the queue the daemon serves from, and shares only its
// Class, Pattern and ShouldPreempt vocabulary.
package hybrid

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// Segment is one phase of a hybrid job.
type Segment struct {
	// Quantum marks QPU phases; false means classical compute.
	Quantum bool
	// Duration is the phase length in simulation time.
	Duration time.Duration
}

// HybridJob is a hybrid quantum-classical program's resource footprint over
// time: an alternating sequence of quantum and classical segments.
type HybridJob struct {
	ID      string
	Class   sched.Class
	Pattern sched.Pattern
	// Segments execute strictly in order.
	Segments []Segment

	// bookkeeping
	submitAt   time.Duration
	startAt    time.Duration
	startHold  time.Duration
	endAt      time.Duration
	curSegment int
	started    bool
	done       bool
	preempts   int
}

// TotalQuantum returns the summed quantum time.
func (j *HybridJob) TotalQuantum() time.Duration {
	var d time.Duration
	for _, s := range j.Segments {
		if s.Quantum {
			d += s.Duration
		}
	}
	return d
}

// TotalClassical returns the summed classical time.
func (j *HybridJob) TotalClassical() time.Duration {
	var d time.Duration
	for _, s := range j.Segments {
		if !s.Quantum {
			d += s.Duration
		}
	}
	return d
}

// Policy selects how the orchestrator maps hybrid jobs onto the single QPU.
type Policy int

const (
	// PolicyExclusiveFIFO models the hint-blind baseline: each job holds
	// the QPU for its entire lifetime (classical phases included) and jobs
	// run in arrival order. This is what "submit the whole hybrid job to
	// the QPU queue" degenerates to without a second-level scheduler.
	PolicyExclusiveFIFO Policy = iota
	// PolicyPriorityExclusive adds class priority (and production
	// preemption at job granularity) but still holds the QPU exclusively.
	PolicyPriorityExclusive
	// PolicyInterleave is the paper's hint-aware policy: the QPU is held
	// only during quantum segments, so other jobs' quantum segments fill
	// the gaps; class priority orders the QPU grant queue and production
	// preempts lower-class segment holders.
	PolicyInterleave
)

func (p Policy) String() string {
	switch p {
	case PolicyExclusiveFIFO:
		return "exclusive-fifo"
	case PolicyPriorityExclusive:
		return "priority-exclusive"
	case PolicyInterleave:
		return "interleave"
	default:
		return "unknown"
	}
}

// Metrics aggregates an orchestrator run.
type Metrics struct {
	Makespan time.Duration
	// QPUBusy is time the QPU spent executing quantum segments.
	QPUBusy time.Duration
	// QPUHeldIdle is time the QPU was reserved by a job but idle (the
	// exclusive policies' waste).
	QPUHeldIdle time.Duration
	// QPUUtilization is QPUBusy / Makespan.
	QPUUtilization float64
	// ClassicalBusy is total classical compute time delivered.
	ClassicalBusy time.Duration
	// WaitByClass is the mean time from submission to first execution.
	WaitByClass map[sched.Class]time.Duration
	// MaxWaitProduction is the worst production-class wait.
	MaxWaitProduction time.Duration
	// Preemptions counts segment/job preemptions performed.
	Preemptions int
	// JobsCompleted counts finished jobs.
	JobsCompleted int
}

// Orchestrator executes hybrid jobs on a single simulated QPU plus an
// unbounded classical pool, under a policy. It is deliberately independent
// of the device model: experiments measure pure scheduling effects.
type Orchestrator struct {
	clock  *simclock.Clock
	policy Policy

	mu      sync.Mutex
	queue   []*HybridJob // jobs not yet finished and not executing a segment
	jobs    map[string]*HybridJob
	holder  *HybridJob // current QPU holder (exclusive: whole job; interleave: quantum segment)
	segEnd  *simclock.Event
	busy    time.Duration // accumulated QPU execution
	held    time.Duration // accumulated QPU reservation
	classic time.Duration
	firstAt map[string]time.Duration
	preempt int
	doneN   int
	t0      time.Duration
	lastEnd time.Duration
}

// NewOrchestrator returns an orchestrator on the clock with the policy.
func NewOrchestrator(clock *simclock.Clock, policy Policy) (*Orchestrator, error) {
	if clock == nil {
		return nil, errors.New("hybrid: orchestrator requires a clock")
	}
	return &Orchestrator{
		clock:   clock,
		policy:  policy,
		jobs:    make(map[string]*HybridJob),
		firstAt: make(map[string]time.Duration),
		t0:      clock.Now(),
	}, nil
}

// Submit enqueues a hybrid job.
func (o *Orchestrator) Submit(j *HybridJob) error {
	if j.ID == "" {
		return errors.New("hybrid: job needs an ID")
	}
	if len(j.Segments) == 0 {
		return errors.New("hybrid: job needs at least one segment")
	}
	for i, s := range j.Segments {
		if s.Duration <= 0 {
			return fmt.Errorf("hybrid: job %s segment %d has non-positive duration", j.ID, i)
		}
	}
	o.mu.Lock()
	if _, dup := o.jobs[j.ID]; dup {
		o.mu.Unlock()
		return fmt.Errorf("hybrid: duplicate job ID %q", j.ID)
	}
	j.submitAt = o.clock.Now()
	o.jobs[j.ID] = j
	o.mu.Unlock()
	if o.policy == PolicyInterleave {
		// Classical segments never wait for the QPU; route through
		// advance so only quantum segments join the grant queue.
		o.advance(j)
	} else {
		o.mu.Lock()
		o.queue = append(o.queue, j)
		o.mu.Unlock()
		o.dispatch()
	}
	return nil
}

// advance moves an interleave-policy job to its next segment: classical
// segments run immediately off-QPU, quantum segments join the grant queue,
// and exhausted jobs finish.
func (o *Orchestrator) advance(j *HybridJob) {
	o.mu.Lock()
	if j.curSegment >= len(j.Segments) {
		o.finishLocked(j)
		o.mu.Unlock()
		o.dispatch()
		return
	}
	seg := j.Segments[j.curSegment]
	if !seg.Quantum {
		if !j.started {
			j.started = true
			j.startAt = o.clock.Now()
			o.firstAt[j.ID] = o.clock.Now() - j.submitAt
		}
		o.classic += seg.Duration
		o.clock.Schedule(seg.Duration, "classical-"+j.ID, func() {
			o.mu.Lock()
			j.curSegment++
			o.mu.Unlock()
			o.advance(j)
		})
		o.mu.Unlock()
		// The QPU may be free and other quantum segments waiting.
		o.dispatch()
		return
	}
	o.queue = append(o.queue, j)
	o.mu.Unlock()
	o.dispatch()
}

// nextLocked picks the next job to grant the QPU: class priority then FIFO
// for priority policies, plain FIFO for the baseline.
func (o *Orchestrator) nextLocked() *HybridJob {
	if len(o.queue) == 0 {
		return nil
	}
	if o.policy == PolicyExclusiveFIFO {
		return o.queue[0]
	}
	best := 0
	for i := 1; i < len(o.queue); i++ {
		a, b := o.queue[i], o.queue[best]
		if a.Class > b.Class || (a.Class == b.Class && a.submitAt < b.submitAt) {
			best = i
		}
	}
	return o.queue[best]
}

func (o *Orchestrator) removeFromQueueLocked(j *HybridJob) {
	for i, q := range o.queue {
		if q == j {
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			return
		}
	}
}

// dispatch grants the QPU if it is free, and handles production preemption.
func (o *Orchestrator) dispatch() {
	o.mu.Lock()
	// Preemption check: a waiting production job versus a lower holder.
	if o.holder != nil && o.policy != PolicyExclusiveFIFO {
		if cand := o.nextLocked(); cand != nil && sched.ShouldPreempt(cand.Class, o.holder.Class) {
			victim := o.holder
			o.clock.Cancel(o.segEnd)
			// The interrupted segment restarts from scratch later.
			victim.preempts++
			o.preempt++
			o.accountHolderLocked(victim, o.clock.Now())
			o.holder = nil
			o.queue = append(o.queue, victim)
			victim.started = true
		}
	}
	if o.holder != nil {
		o.mu.Unlock()
		return
	}
	j := o.nextLocked()
	if j == nil {
		o.mu.Unlock()
		return
	}
	o.removeFromQueueLocked(j)
	if !j.started {
		j.started = true
		j.startAt = o.clock.Now()
		o.firstAt[j.ID] = o.clock.Now() - j.submitAt
	}
	o.holder = j
	j.holdFrom(o.clock.Now())

	var dur time.Duration
	switch o.policy {
	case PolicyExclusiveFIFO, PolicyPriorityExclusive:
		// The job holds the QPU for all remaining segments.
		for _, s := range j.Segments[j.curSegment:] {
			dur += s.Duration
		}
	case PolicyInterleave:
		// Only quantum segments reach the queue (advance routes
		// classical segments off-QPU), so this hold is pure QPU time.
		dur = j.Segments[j.curSegment].Duration
	}
	o.segEnd = o.clock.Schedule(dur, "qpu-hold-"+j.ID, func() { o.holdEnd(j) })
	o.mu.Unlock()
}

// holdFrom records when the job's current QPU hold started.
func (j *HybridJob) holdFrom(at time.Duration) { j.startHold = at }

// holdEnd completes the current QPU hold.
func (o *Orchestrator) holdEnd(j *HybridJob) {
	o.mu.Lock()
	if o.holder != j {
		o.mu.Unlock()
		return
	}
	now := o.clock.Now()
	o.accountHolderLocked(j, now)
	o.holder = nil
	if o.policy == PolicyInterleave {
		j.curSegment++
		o.mu.Unlock()
		o.advance(j)
		return
	}
	j.curSegment = len(j.Segments)
	o.finishLocked(j)
	o.mu.Unlock()
	o.dispatch()
}

// accountHolderLocked folds the elapsed hold into busy/held/classical
// counters, splitting exclusive holds into their quantum and classical parts.
func (o *Orchestrator) accountHolderLocked(j *HybridJob, now time.Duration) {
	elapsed := now - j.startHold
	if elapsed <= 0 {
		return
	}
	o.held += elapsed
	switch o.policy {
	case PolicyInterleave:
		// Interleave holds are always pure quantum segments.
		o.busy += elapsed
	default:
		// Walk the remaining segments to split quantum vs classical
		// within the elapsed window.
		remain := elapsed
		for _, s := range j.Segments[j.curSegment:] {
			d := s.Duration
			if d > remain {
				d = remain
			}
			if s.Quantum {
				o.busy += d
			} else {
				o.classic += d
			}
			remain -= d
			if remain <= 0 {
				break
			}
		}
	}
}

func (o *Orchestrator) finishLocked(j *HybridJob) {
	if j.done {
		return
	}
	j.done = true
	j.endAt = o.clock.Now()
	o.doneN++
	if j.endAt > o.lastEnd {
		o.lastEnd = j.endAt
	}
}

// Done reports whether every submitted job has finished.
func (o *Orchestrator) Done() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.doneN == len(o.jobs)
}

// Metrics summarizes the run so far.
func (o *Orchestrator) Metrics() Metrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := Metrics{
		QPUBusy:       o.busy,
		QPUHeldIdle:   o.held - o.busy,
		ClassicalBusy: o.classic,
		Preemptions:   o.preempt,
		JobsCompleted: o.doneN,
		WaitByClass:   make(map[sched.Class]time.Duration),
	}
	m.Makespan = o.lastEnd - o.t0
	if m.Makespan > 0 {
		m.QPUUtilization = float64(o.busy) / float64(m.Makespan)
	}
	counts := make(map[sched.Class]int)
	for id, w := range o.firstAt {
		j := o.jobs[id]
		m.WaitByClass[j.Class] += w
		counts[j.Class]++
		if j.Class == sched.ClassProduction && w > m.MaxWaitProduction {
			m.MaxWaitProduction = w
		}
	}
	for c, total := range m.WaitByClass {
		m.WaitByClass[c] = total / time.Duration(counts[c])
	}
	return m
}

// JobReport summarizes one job after the run.
type JobReport struct {
	ID         string
	Class      sched.Class
	Pattern    sched.Pattern
	Wait       time.Duration
	Turnaround time.Duration
	Preempts   int
	Done       bool
}

// Report returns per-job summaries sorted by ID.
func (o *Orchestrator) Report() []JobReport {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]JobReport, 0, len(o.jobs))
	for id, j := range o.jobs {
		r := JobReport{
			ID: id, Class: j.Class, Pattern: j.Pattern,
			Wait: o.firstAt[id], Preempts: j.preempts, Done: j.done,
		}
		if j.done {
			r.Turnaround = j.endAt - j.submitAt
		}
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
