package daemon

// The job record and its lifecycle. A record has one way in and one way to
// its end: newJob mints every record, accepted or shed, and finish is the
// only transition into a terminal state. How a terminal record then
// leaves the table is retention.go's one rule.

import (
	"sync"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/mint"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/trace"
)

// JobState is the daemon-level job lifecycle. Preempted jobs return to
// queued, so the terminal states are completed, failed, cancelled and
// rejected.
type JobState string

const (
	// JobQueued waits in a class queue.
	JobQueued JobState = "queued"
	// JobRunning is on the device.
	JobRunning JobState = "running"
	// JobCompleted has a result.
	JobCompleted JobState = "completed"
	// JobFailed hit an error.
	JobFailed JobState = "failed"
	// JobCancelled was cancelled by its owner or an admin.
	JobCancelled JobState = "cancelled"
	// JobRejected was shed by the admission stage: it never reached a queue.
	// AdmissionReason carries the policy rationale.
	JobRejected JobState = "rejected"
)

// Session is an authenticated user connection. "As the user part of the
// runtime environment connects to the middleware, a unique session is
// created, and a session token is returned" (§3.3).
type Session struct {
	Token     string        `json:"token"`
	User      string        `json:"user"`
	CreatedAt time.Duration `json:"created_at"`
	Jobs      []string      `json:"jobs"`

	// released counts Jobs entries whose records were evicted from the job
	// table since the list was last compacted.
	released int
}

// Job is the daemon's job record.
type Job struct {
	ID      string        `json:"id"`
	User    string        `json:"user"`
	Class   sched.Class   `json:"-"`
	Pattern sched.Pattern `json:"pattern,omitempty"`
	// Source records where the job entered the daemon ("slurm" for jobs
	// arriving through the batch allocation path, "cloud" for jobs accepted
	// via a cloud interface, …). The daemon "receives jobs from one or more
	// sources" (§3.3); the tag keeps per-source accounting possible.
	Source string `json:"source,omitempty"`
	// Device is the fleet partition the job was routed to. A preempted job
	// may be requeued onto a different partition (cross-partition requeue),
	// in which case Device tracks the current home.
	Device string `json:"device,omitempty"`
	// Pinned marks jobs submitted with an explicit target partition; they
	// are never moved by cross-partition requeue.
	Pinned bool `json:"pinned,omitempty"`
	// RequestedClass is the class the submitter asked for. It differs from
	// Class only when the admission stage down-classed the job.
	RequestedClass sched.Class `json:"-"`
	// AdmissionOutcome is the admission stage's verdict when it was anything
	// other than a plain accept ("downgraded", "rejected"); AdmissionReason
	// carries the policy rationale.
	AdmissionOutcome string `json:"admission_outcome,omitempty"`
	AdmissionReason  string `json:"admission_reason,omitempty"`
	// RetryAfterSeconds is the queue-drain estimate attached to rejected
	// jobs: how long a well-behaved client should back off before retrying.
	// Derived from the admission view's queued expected-QPU backlog at the
	// rejected class and above, spread across the fleet. Zero on every
	// non-rejected record.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// ExpectedQPUSeconds is the duration hint used by shortest-first
	// scheduling: the submitter's declared value, or the daemon's own
	// estimate from the validated program when none was given.
	ExpectedQPUSeconds float64  `json:"expected_qpu_seconds"`
	State              JobState `json:"state"`
	// DeadlineSeconds is the submitter's completion deadline relative to
	// submission (0 = none). Deadline-aware priority policies score against
	// it, the slo-guard door consults it, and terminal execute spans are
	// annotated deadline=hit|miss when it is set — jobs without one are
	// reported exactly as before.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Cache records the partition program-cache outcome of the job's most
	// recent dispatch ("hit" or "miss"). Empty when program caching is
	// disabled (Config.ProgramCache == 0), so existing reports are unchanged.
	Cache string `json:"cache,omitempty"`
	// DeviceTask is the current underlying device task, when running.
	DeviceTask  string        `json:"-"`
	SubmittedAt time.Duration `json:"submitted_at"`
	StartedAt   time.Duration `json:"started_at"`
	FinishedAt  time.Duration `json:"finished_at"`
	Preemptions int           `json:"preemptions"`
	Error       string        `json:"error,omitempty"`

	// prog is the decode of the submitted program bytes, resolved once at
	// submission through the process-wide decode memo and reused by every
	// dispatch (including preemption requeues), so the dispatch loop never
	// re-decodes JSON. Programs are immutable after decode. It is dropped at
	// the terminal transition: nothing dispatches a finished job.
	prog *qir.Program
	// progHash is the canonical program fingerprint, memoized alongside prog
	// in the decode cache — the partition program-cache key. Zero means no
	// fingerprint (the job bypasses the cache).
	progHash uint64
	// capable is validate's answer, the spec kinds that can run prog; sess
	// is the owning session, which may since have been closed.
	capable specSet
	sess    *Session
	// res is the completed device result, marshalled lazily: JobResult
	// renders (and memoizes, in result) the JSON on first read, so replays —
	// where no one ever fetches results — skip a per-job reflection-based
	// marshal.
	res    *qir.Result
	result []byte
	// enqueuedAt is when the job last entered a queue (submission, then each
	// preemption requeue) — the start of its current queued/requeued trace
	// span.
	enqueuedAt time.Duration
	// seq is the number the job was minted as: its index in the job table.
	// ID spells it for the edge (mint.Spell).
	seq int
}

// ClassName renders the class for JSON consumers.
func (j *Job) ClassName() string { return j.Class.String() }

// JobEventType enumerates the job lifecycle transitions the daemon reports to
// a Config.JobListener.
type JobEventType string

const (
	// JobEventSubmitted fires once per accepted submission, before the job
	// becomes visible to dispatch.
	JobEventSubmitted JobEventType = "submitted"
	// JobEventStarted fires when the job begins executing on a partition.
	// A preempted job fires it again on each re-start.
	JobEventStarted JobEventType = "started"
	// JobEventPreempted fires when a production job evicts the running job;
	// the event carries the victim.
	JobEventPreempted JobEventType = "preempted"
	// JobEventRequeued fires when a preempted job re-enters a queue; the
	// snapshot's Device is the partition it was requeued onto (which may
	// differ from where it ran, under cross-partition requeue).
	JobEventRequeued JobEventType = "requeued"
	// JobEventFinished fires once when the job reaches a terminal state
	// (completed, failed or cancelled — see the snapshot's State).
	JobEventFinished JobEventType = "finished"
	// JobEventRejected fires when the admission stage sheds a submission.
	// It is the only event a shed job ever fires.
	JobEventRejected JobEventType = "rejected"
)

// JobEvent is one lifecycle transition. Job is a point-in-time snapshot; the
// payload and result bytes are not included.
type JobEvent struct {
	Type JobEventType
	// At is the simulation time of the transition.
	At time.Duration
	// Job is a copy of the job record at the transition.
	Job Job
}

// notify delivers a lifecycle event snapshot to the configured listener,
// which runs inside the world and must not call back into the daemon (see
// Config.JobListener). It takes the record by pointer, so no copy of it is
// made before the event's own.
func (d *Daemon) notify(t JobEventType, j *Job) {
	if d.cfg.JobListener == nil {
		return
	}
	d.cfg.JobListener(JobEvent{Type: t, At: d.cfg.Clock.Now(), Job: *j})
}

// jobPool recycles Job records across replay cells. A thousand-cell sweep
// churns through millions of job records whose lifetimes end with their
// daemon's report; pooling them (via the replay driver's Release calls) keeps
// the sweep's live heap proportional to the worker count, not the cell count.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

// defaultSource applies the default intake label ("slurm", the primary
// intake the paper describes).
func defaultSource(s string) string {
	if s == "" {
		return "slurm"
	}
	return s
}

// newJob is the record constructor — the one place a job is minted,
// numbered, entered in the job table and its session's list, and counted by
// source. The record is born queued at the admitted class on partition
// device; a shed submission's record (device "") is turned terminal by
// finish straight away, like any other job's end. Minting gives the
// submission the ID its stage spans were waiting for, so they are emitted
// here; the stage it was in ends now.
func (d *Daemon) newJob(sub *submission, device string) *Job {
	req, dec := &sub.req, &sub.dec
	now := d.cfg.Clock.Now()
	j := jobPool.Get().(*Job) // zeroed: new, or cleared by evict before Put
	j.seq = d.jobs.Push(j)
	j.ID = mint.Spell(mint.JobPrefix, j.seq)
	// Field by field: a composite literal would be built aside and copied in.
	j.sess, j.User, j.Source = sub.sess, sub.sess.User, defaultSource(req.Source)
	j.Class, j.RequestedClass, j.Pattern = dec.Class, req.Class, req.Pattern
	j.Device, j.Pinned, j.State = device, req.Device != "", JobQueued
	j.ExpectedQPUSeconds, j.DeadlineSeconds = req.ExpectedQPUSeconds, req.DeadlineSeconds
	j.SubmittedAt, j.enqueuedAt = now, now
	j.prog, j.progHash, j.capable = sub.prog, sub.progHash, sub.capable
	if dec.Outcome != admission.Accepted {
		j.AdmissionOutcome = string(dec.Outcome)
		j.AdmissionReason = dec.Reason
	}
	sub.sess.Jobs = append(sub.sess.Jobs, j.ID)
	d.jobsBySource[j.Source]++
	if n := sub.nspans; n > 0 {
		sub.spans[n-1].End = now
		cls := j.Class.String()
		for i := range sub.spans[:n] {
			sp := &sub.spans[i]
			sp.Job, sp.Class = j.ID, cls
			d.emitSpan(*sp)
		}
	}
	return j
}

// finish is the terminal transition — the single place a job turns
// completed, failed, cancelled or rejected, and so the single place that
// counts it, reports it, closes its trace and hands it to retention. It
// reports whether the transition happened (false when the job was already
// terminal).
func (d *Daemon) finish(j *Job, state JobState, err error) bool {
	if j.State != JobQueued && j.State != JobRunning {
		return false
	}
	prior := j.State
	j.State = state
	j.FinishedAt = d.cfg.Clock.Now()
	if err != nil {
		j.Error = err.Error()
	}
	j.prog = nil
	if d.cfg.Registry != nil { // also what keeps a class outside bJobs from indexing it
		d.bJobs[j.Class][state].Inc(1)
	}
	event, ring := JobEventFinished, &d.finished
	switch state {
	case JobRejected:
		event, ring = JobEventRejected, &d.rejected
		d.rejectedTotal++
	case JobCompleted:
		if took := j.FinishedAt - j.SubmittedAt; took > 0 && j.ExpectedQPUSeconds > 0 {
			d.feed(admission.Signal{Class: j.Class, At: j.FinishedAt, WaitSeconds: -1,
				Slowdown: took.Seconds() / j.ExpectedQPUSeconds})
		}
	}
	d.notify(event, j)
	if d.traced() {
		d.emitTerminalSpans(j, prior)
	}
	ring.Push(j)
	d.evict(ring, d.cfg.History, false)
	return true
}

// emitTerminalSpans closes a job's trace: the span of the stage it ended in
// — execute, or the wait it was cancelled out of; a shed job was in neither —
// then its lifecycle mark.
func (d *Daemon) emitTerminalSpans(j *Job, prior JobState) {
	cls := j.Class.String()
	if j.State != JobRejected {
		detail := terminalDetail(j)
		stage, start := trace.StageExecute, j.StartedAt
		if prior == JobQueued {
			// Cancelled while waiting, or failed before it started (a push
			// the queue refused, a device submission that failed).
			stage, start = waitStage(j), j.enqueuedAt
		}
		d.emitSpan(trace.Span{Job: j.ID, Stage: stage, Class: cls, Device: j.Device,
			Start: start, End: j.FinishedAt, Detail: detail})
	}
	if d.spanMarks {
		d.emitSpan(trace.Span{Job: j.ID, Stage: terminalMark(j.State), Class: cls, Device: j.Device,
			Start: j.FinishedAt, End: j.FinishedAt})
	}
}

// terminalDetail annotates a completed, failed or cancelled job's terminal
// span: its state, plus the verdict when it carries a deadline — a constant
// either way, so the traced path builds no string.
func terminalDetail(j *Job) string {
	switch {
	case j.DeadlineSeconds <= 0:
		return string(j.State)
	case j.State == JobCompleted && j.FinishedAt <= j.SubmittedAt+simclock.Seconds(j.DeadlineSeconds):
		return "completed deadline=hit"
	case j.State == JobCompleted:
		return "completed deadline=miss"
	case j.State == JobFailed:
		return "failed deadline=miss"
	}
	return "cancelled deadline=miss"
}
