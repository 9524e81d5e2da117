// Package daemon implements the paper's middleware service (§3.3): a
// standalone process on the quantum access node that inserts an abstraction
// layer between user sessions and the QPU task queue. It provides the second
// level of scheduling below Slurm — priority classes with production
// preemption — plus multi-user session management, admin operations, gated
// low-level controls, and the telemetry endpoints of the observability stack.
//
// The daemon manages a fleet of QPU partitions rather than a single device.
// Two composable policy axes govern placement: a Router picks the target
// partition at submission time ("which instance"), and each partition's
// sched.ClassQueue orders the work routed to it ("what order"). Dispatch is
// concurrent across partitions — each partition has its own queue, running
// slot and dispatch loop, guarded by per-device state — so one partition's
// backlog never serializes the rest of the fleet.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
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
	// Terminal from birth; AdmissionReason carries the policy rationale.
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

	// released counts Jobs entries whose records Release has pooled since the
	// list was last compacted.
	released int
}

// Job is the daemon's job record.
type Job struct {
	ID      string        `json:"id"`
	Session string        `json:"-"`
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

	payload []byte
	result  []byte
	// res is the completed device result, marshalled lazily: JobResult
	// renders (and memoizes) the JSON on first read, so replays — where no
	// one ever fetches results — skip a per-job reflection-based marshal.
	res *qir.Result
	// prog is the decoded payload, resolved once at submission through the
	// daemon's program cache and reused by every later dispatch (including
	// preemption requeues), so the dispatch loop never re-decodes JSON.
	// Programs are immutable after decode.
	prog *qir.Program
	// progHash is the canonical program fingerprint, memoized alongside prog
	// in the decode cache — the partition program-cache key. Zero means no
	// fingerprint (the job bypasses the cache).
	progHash uint64
	// enqueuedAt is when the job last entered a queue (submission, then each
	// preemption requeue) — the start of its current queued/requeued trace
	// span. Guarded by d.mu like the exported timing fields.
	enqueuedAt time.Duration
}

// ClassName renders the class for JSON consumers.
func (j *Job) ClassName() string { return j.Class.String() }

// jobPool recycles Job records across replay cells. A thousand-cell sweep
// churns through millions of job records whose lifetimes end with their
// daemon's report; pooling them (via the replay driver's Release calls) keeps
// the sweep's live heap proportional to the worker count, not the cell count.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

// newJob takes a zeroed Job record from the pool. Callers overwrite every
// field they use; the pool guarantees the record arrives zeroed.
func newJob() *Job {
	j := jobPool.Get().(*Job)
	*j = Job{}
	return j
}

// Release pools every job record that has turned terminal through dispatch
// (completed, failed, cancelled) since the last call, takes it out of the job
// table and trims its ID from the owning session's Jobs list — amortized
// O(released), whatever the backlog: the walk is over the settled list, and a
// session's list is compacted only once more than half of it is released.
// Queued and running jobs are never touched, which is what makes it callable
// mid-run: the replay driver calls it between clock events at a fixed cadence
// so a long trace holds its in-flight jobs, not every job it has seen, and
// once more after extracting its report. Rejected records stay, bounded by
// Config.RejectedHistory (their pointers escape through RejectedError).
//
// It is safe only while no other daemon call is in progress and no caller
// holds *Job pointers obtained from this daemon — public accessors hand out
// copies, so a single-goroutine driver between events has that guarantee. A
// released ID reads as an unknown job; a serving daemon never calls this and
// keeps every record.
func (d *Daemon) Release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, j := range d.settled {
		d.settled[i] = nil
		delete(d.jobs, j.ID)
		if s := d.sessions[j.Session]; s != nil {
			if s.released++; 2*s.released > len(s.Jobs) {
				kept := s.Jobs[:0]
				for _, id := range s.Jobs {
					if _, live := d.jobs[id]; live {
						kept = append(kept, id)
					}
				}
				s.Jobs, s.released = kept, 0
			}
		}
		*j = Job{} // drop payload/result references before pooling
		jobPool.Put(j)
	}
	d.settled = d.settled[:0]
}

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
	// The job is terminal from birth, so no other event follows it.
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

// Config parameterizes the daemon.
type Config struct {
	// Device is the managed QPU when running a single-partition node —
	// shorthand for a one-entry Devices slice. One of Device/Devices is
	// required.
	Device *device.Device
	// Devices is the managed fleet of QPU partitions sharing the clock.
	// Device IDs must be unique.
	Devices []*device.Device
	// Router picks the target partition per job. Defaults to least-loaded.
	Router Router
	// Admission is the submit pipeline's first stage: it decides which
	// submissions enter the system at all, and at what class. Defaults to
	// admission.AcceptAll (every valid submission is accepted). Policies
	// that implement admission.Observer receive the SLO feedback signals
	// (queue waits, slowdowns) the dispatch stages produce.
	Admission admission.Policy
	// Order is the queueing stage's within-class order. Defaults to FIFO.
	Order OrderPolicy
	// Priority is the dynamic-urgency axis composing with Order: a per-item
	// score recomputed at each dispatch tick, with the order policy breaking
	// score ties. Defaults to the constant policy, which leaves dispatch on
	// the exact legacy order-only path (byte-identical reports).
	Priority PriorityPolicy
	// RejectedHistory bounds how many terminal rejected job records are
	// retained for status queries (default 1024). Admission exists to
	// absorb floods, so the flood's rejection records must not grow daemon
	// memory without bound; the oldest records are pruned first, while
	// counters and lifecycle events still see every rejection.
	RejectedHistory int
	// Clock is the simulation clock shared with the devices. Required.
	Clock *simclock.Clock
	// AdminToken authenticates the admin plane. Required for admin APIs.
	AdminToken string
	// EnablePreemption lets production jobs preempt running lower-class
	// jobs (the paper's policy; on by default via NewDaemon). Preemption is
	// confined to the partition the production job was routed to.
	EnablePreemption bool
	// AllowedLowLevelOps is the gated allowlist of low-level control
	// operations exposed to integrators (§2.5). Others are rejected.
	AllowedLowLevelOps []string
	// JobListener receives job lifecycle events when non-nil — the hook the
	// loadgen SLO analyzer and trace recorder attach to. The listener may be
	// invoked while daemon locks are held: it must return quickly and must
	// not call back into the daemon (schedule follow-up work on the clock
	// instead).
	JobListener func(JobEvent)
	// SpanListener receives simulation-time pipeline and occupancy spans when
	// non-nil — the tracing analogue of JobListener, with the same contract:
	// it may be invoked under daemon locks, must return quickly, and must not
	// call back into the daemon. Spans are pure functions of the simulation
	// clock and the scheduling decisions, so attaching a deterministic
	// listener preserves replay determinism.
	SpanListener trace.Listener
	// Flight, when non-nil, is a flight recorder the daemon additionally
	// feeds every span — the bounded in-process trace store behind
	// GET /api/v1/trace and `qctl trace <job>`. Usable with or without a
	// SpanListener.
	Flight *trace.FlightRecorder
	// PipelineSpansOnly restricts emission to the duration-carrying pipeline
	// stages (validate/admission/route/queued/requeued/execute), skipping
	// instant lifecycle marks, dispatch hand-off marks and partition
	// busy/idle occupancy spans. Stage-latency attribution is a pure
	// consumer of the pipeline stages, so a listener that only aggregates
	// (the loadgen SLO analyzer) sets this to halve the span traffic; trace
	// stores and exporters must leave it false.
	PipelineSpansOnly bool
	// ProgramCache bounds each partition's calibration-warm program cache
	// (entries per partition; the cache key is the canonical program
	// fingerprint). A partition that recently ran a program holds warm state
	// for it — calibration for that pulse family, compiled circuit, duration
	// estimate — so a dispatch hitting the cache skips the cold setup cost
	// and the affinity router can steer repeat programs back to warm
	// partitions. Zero (the default) disables caching entirely: no counters,
	// no report fields, no span annotations — output stays byte-identical to
	// a cache-less daemon.
	ProgramCache int
	// SetupSeconds is the cold-setup cost a program-cache miss adds to a
	// dispatch's device occupancy, in QPU seconds; hits pay nothing, and
	// daemon-made duration estimates include it unless the routed partition
	// is already warm. Requires ProgramCache > 0 (with no cache every
	// dispatch would pay it, which models nothing).
	SetupSeconds float64
	// Registry receives daemon metrics when non-nil.
	Registry *telemetry.Registry
	// TSDB receives queue telemetry when non-nil.
	TSDB *telemetry.TSDB
	// Seed drives session-token generation.
	Seed int64
}

// UsePolicies fills each policy stage that is still nil from its spec (see
// internal/policy for the grammar); an empty spec selects that axis's default.
func (c *Config) UsePolicies(router, scheduler, admit, priority string) (err error) {
	if c.Router == nil {
		c.Router, err = Routers.New(router)
	}
	if c.Order == nil && err == nil {
		c.Order, err = Orders.New(scheduler)
	}
	if c.Admission == nil && err == nil {
		c.Admission, err = admission.Policies.New(admit)
	}
	if c.Priority == nil && err == nil {
		c.Priority, err = Priorities.New(priority)
	}
	return err
}

// deviceState is one partition's scheduling state. Its mutex guards the
// running slot, the task→job index, the orphan buffer and the dispatch-loop
// flags; the queue carries its own lock. Lock order: ds.mu may be taken
// first and d.mu acquired under it, never the reverse.
type deviceState struct {
	id    string
	dev   *device.Device
	queue *sched.ClassQueue
	// spec is the partition's device spec, snapshotted once at construction
	// (specs are immutable) so routing does not copy it per pick.
	spec qir.DeviceSpec
	// cache is the partition's calibration-warm program cache, nil when
	// Config.ProgramCache is zero. It carries its own mutex (a leaf lock:
	// nothing is acquired under it).
	cache *progLRU
	// Pre-bound cache counter series (nil without a registry or cache).
	gCacheHits, gCacheMisses, gCacheEvictions *telemetry.BoundSeries

	mu      sync.Mutex
	running *Job
	byTask  map[string]*Job
	// gQueue and gUtil are pre-bound per-device telemetry series (nil when
	// no registry is configured), so queue-depth emission does not rebuild
	// label keys per dispatch.
	gQueue [3]*telemetry.BoundSeries
	gUtil  *telemetry.BoundSeries

	// inflight counts jobs routed here but not yet visible in the queue
	// (between route's pick and Submit's queue.Push). route() includes it
	// in the router's load view — and serializes snapshot+pick+reserve
	// under routeMu — so a burst of concurrent submissions cannot all act
	// on the same pre-enqueue snapshot and herd onto one partition.
	inflight int
	// orphans buffers terminal task notifications that arrive before the
	// dispatcher registers the task in byTask — possible when another
	// goroutine advances the clock between device.Submit returning and the
	// bookkeeping that follows it. Buffering happens only while submitting
	// is set (dispatch is serial per device, so at most one submission is
	// in flight), and startJob drains the whole buffer, so notifications
	// for tasks the daemon never started cannot accumulate.
	submitting bool
	orphans    map[string]device.TaskState
	// dispatching marks an active dispatch loop; wakeups counts dispatch
	// requests so a loop that is about to exit notices work that arrived
	// after its last queue check.
	dispatching bool
	wakeups     uint64
	// occSince is when the partition last flipped between busy and idle —
	// the open edge of its current occupancy span (tracing only).
	occSince time.Duration
}

// Daemon is the middleware service core. The HTTP layer in http.go is a thin
// shell over these methods, so everything is testable without sockets.
type Daemon struct {
	cfg    Config
	router Router
	order  OrderPolicy
	// priority is the dynamic-urgency axis. ranker is order × priority as
	// one indexed rank, set when both policies state theirs (every built-in
	// combination); otherwise popNext falls back to the policies' own
	// linear entry points, and tieOrder is the order's rank for breaking a
	// scoring-only priority's ties (nil: push order). Both are chosen once,
	// by composeRanker.
	priority PriorityPolicy
	ranker   *sched.Ranker
	tieOrder *sched.Ranker

	// admitMu serializes admission decisions so stateful policies (token
	// buckets, SLO windows) see submissions in a single, reproducible order.
	admitMu  sync.Mutex
	admitter admission.Policy
	// admitObserver is the admitter's Observer side, when it has one —
	// the stage-4 → stage-1 SLO feedback sink.
	admitObserver admission.Observer
	// admitDetails interns the reason-less admission span annotations
	// ("<policy> <outcome>") so traced accepts don't concatenate per job.
	admitDetails map[admission.Outcome]string

	// fleet and byDevice are immutable after NewDaemon: the partition pool
	// (validated through device.FleetOf) with scheduling state layered on.
	fleet    []*deviceState
	byDevice map[string]*deviceState

	// routeMu serializes route()'s snapshot+Pick+reserve so concurrent
	// submissions cannot all act on the same load view.
	routeMu sync.Mutex

	// mu guards sessions, jobs and their fields, and the accounting maps.
	mu       sync.Mutex
	rng      *rand.Rand
	sessions map[string]*Session
	jobs     map[string]*Job
	nextJob  int
	nextSess int

	// accounting. Queue waits are kept as per-class running sums (the only
	// consumer is AdminStatus's mean), not per-job slices: a week-long
	// million-job replay must not grow daemon memory linearly in jobs.
	waitSum      map[sched.Class]time.Duration
	waitCount    map[sched.Class]int
	usageByUser  map[string]float64 // accumulated QPU seconds, fair-share key
	preemptTotal int
	// rejectedTotal counts every admission shed over the daemon's lifetime;
	// rejectedIDs is the FIFO of retained rejected job records, pruned at
	// cfg.RejectedHistory.
	rejectedTotal int
	rejectedIDs   []string
	// settled lists the records finishLocked turned terminal since the last
	// Release — what lets Release run in O(terminal) under a deep backlog. A
	// serving daemon never drains it: one pointer per record it retains anyway.
	settled []*Job

	mJobs, mQueueLen, mSessions          *telemetry.Metric
	mWait                                *telemetry.Metric
	mDevQueueLen, mDevUtil               *telemetry.Metric
	mAdmission, mAdmissionRejected       *telemetry.Metric
	mCacheHits, mCacheMisses, mCacheEvic *telemetry.Metric

	// Pre-bound label series for the dispatch hot path, indexed by class.
	// All nil when no registry is configured (BoundSeries methods are
	// nil-safe), so the hot path pays neither label-key rendering nor map
	// allocation per job.
	bWait       [3]*telemetry.BoundSeries
	bJobs       [3]map[JobState]*telemetry.BoundSeries
	bQueueTotal [3]*telemetry.BoundSeries
	bAdmit      [3]map[admission.Outcome]*telemetry.BoundSeries
	bAdmitRej   [3]*telemetry.BoundSeries

	// spanMarks reports whether instant marks and occupancy spans are
	// emitted (false under Config.PipelineSpansOnly).
	spanMarks bool
	// span is the wired trace listener (Config.SpanListener teed with the
	// flight recorder); nil means tracing off and every emission site reduces
	// to one nil check.
	span   trace.Listener
	flight *trace.FlightRecorder
}

// The decode-once program cache: payload bytes → decoded program plus its
// canonical fingerprint. Replay and load generation submit a handful of
// distinct payloads millions of times — across many short-lived daemon
// instances — so the cache is process-wide: a what-if sweep decodes (and
// hashes) each canonical payload once, not once per policy combination.
// Decoding is a pure function of the bytes, and validation verdicts are
// memoized separately in qir keyed by the full spec contents, so sharing
// across daemons cannot leak one fleet's limits into another's. Lookup by
// string(payload) is allocation-free, which is what keeps the hot replay
// path free of per-job hashing: the fingerprint rides the same memo.
type progEntry struct {
	prog *qir.Program
	hash uint64
}

var (
	progMu    sync.Mutex
	progCache = make(map[string]progEntry)
)

// progCacheLimit bounds the decode cache. Replay workloads cycle through a
// small canonical program set; an adversarial stream of unique payloads
// simply resets the cache rather than growing process memory.
const progCacheLimit = 256

// cachedProgram decodes a payload through the process-wide cache, returning
// the shared immutable program and its canonical fingerprint.
func cachedProgram(payload []byte) (*qir.Program, uint64, error) {
	progMu.Lock()
	e, ok := progCache[string(payload)]
	progMu.Unlock()
	if ok {
		return e.prog, e.hash, nil
	}
	prog := new(qir.Program)
	if err := prog.UnmarshalJSON(payload); err != nil {
		return nil, 0, fmt.Errorf("daemon: decoding program: %w", err)
	}
	hash := fingerprint(payload)
	progMu.Lock()
	if len(progCache) >= progCacheLimit {
		progCache = make(map[string]progEntry, progCacheLimit)
	}
	progCache[string(payload)] = progEntry{prog: prog, hash: hash}
	progMu.Unlock()
	return prog, hash, nil
}

// NewDaemon wires the daemon to its device fleet.
func NewDaemon(cfg Config) (*Daemon, error) {
	devices := cfg.Devices
	if len(devices) == 0 && cfg.Device != nil {
		devices = []*device.Device{cfg.Device}
	}
	if len(devices) == 0 || cfg.Clock == nil {
		return nil, errors.New("daemon: config requires at least one device and a clock")
	}
	if len(cfg.AllowedLowLevelOps) == 0 {
		cfg.AllowedLowLevelOps = []string{"recalibrate", "qa_check"}
	}
	if cfg.ProgramCache < 0 {
		return nil, fmt.Errorf("daemon: negative program cache capacity %d", cfg.ProgramCache)
	}
	if cfg.SetupSeconds < 0 {
		return nil, fmt.Errorf("daemon: negative setup seconds %g", cfg.SetupSeconds)
	}
	if cfg.SetupSeconds > 0 && cfg.ProgramCache == 0 {
		return nil, errors.New("daemon: SetupSeconds requires ProgramCache > 0 (without a cache every dispatch would pay setup)")
	}
	if cfg.RejectedHistory <= 0 {
		cfg.RejectedHistory = 1024
	}
	// A stage left nil runs its axis default.
	if err := cfg.UsePolicies("", "", "", ""); err != nil {
		return nil, err
	}
	router, order, admitter, priority := cfg.Router, cfg.Order, cfg.Admission, cfg.Priority
	d := &Daemon{
		cfg:         cfg,
		router:      router,
		order:       order,
		priority:    priority,
		admitter:    admitter,
		byDevice:    make(map[string]*deviceState, len(devices)),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		sessions:    make(map[string]*Session),
		jobs:        make(map[string]*Job),
		waitSum:     make(map[sched.Class]time.Duration),
		waitCount:   make(map[sched.Class]int),
		usageByUser: make(map[string]float64),
	}
	d.ranker, d.tieOrder = composeRanker(order, priority)
	d.admitObserver, _ = admitter.(admission.Observer)
	d.internAdmissionDetails()
	d.flight = cfg.Flight
	if d.flight != nil {
		d.span = trace.Tee(cfg.SpanListener, d.flight.Observe)
	} else {
		d.span = cfg.SpanListener
	}
	d.spanMarks = d.span != nil && !cfg.PipelineSpansOnly
	// FleetOf owns the nil-device and unique-ID invariants.
	fleet, err := device.FleetOf(devices...)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	for _, dev := range fleet.Devices() {
		ds := &deviceState{
			id:      dev.ID(),
			dev:     dev,
			queue:   sched.NewClassQueue(),
			spec:    dev.Spec(),
			cache:   newProgLRU(cfg.ProgramCache),
			byTask:  make(map[string]*Job),
			orphans: make(map[string]device.TaskState),
		}
		d.fleet = append(d.fleet, ds)
		d.byDevice[ds.id] = ds
	}
	if cfg.Registry != nil {
		d.mJobs = cfg.Registry.MustCounter("daemon_jobs_total", "Daemon jobs by class and final state.")
		d.mQueueLen = cfg.Registry.MustGauge("daemon_queue_length", "Queued daemon jobs by class.")
		d.mSessions = cfg.Registry.MustGauge("daemon_sessions_active", "Open user sessions.")
		d.mWait = cfg.Registry.MustHistogram("daemon_job_wait_seconds", "Queue wait by class.",
			[]float64{1, 5, 15, 60, 300, 1800, 7200})
		d.mDevQueueLen = cfg.Registry.MustGauge("daemon_device_queue_length", "Queued daemon jobs by device and class.")
		d.mDevUtil = cfg.Registry.MustGauge("daemon_device_utilization", "Per-device QPU utilization fraction.")
		d.mAdmission = cfg.Registry.MustCounter("daemon_admission_total", "Admission decisions by class and outcome.")
		d.mAdmissionRejected = cfg.Registry.MustCounter("daemon_admission_rejected_total", "Submissions shed at admission by class and policy.")
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			name := c.String()
			d.bWait[c] = d.mWait.Bind(telemetry.Labels{"class": name})
			d.bQueueTotal[c] = d.mQueueLen.Bind(telemetry.Labels{"class": name})
			d.bJobs[c] = make(map[JobState]*telemetry.BoundSeries, 4)
			for _, st := range []JobState{JobCompleted, JobFailed, JobCancelled, JobRejected} {
				d.bJobs[c][st] = d.mJobs.Bind(telemetry.Labels{"class": name, "state": string(st)})
			}
			d.bAdmit[c] = make(map[admission.Outcome]*telemetry.BoundSeries, 3)
			for _, out := range []admission.Outcome{admission.Accepted, admission.Downgraded, admission.Rejected} {
				d.bAdmit[c][out] = d.mAdmission.Bind(telemetry.Labels{"class": name, "outcome": string(out)})
			}
			d.bAdmitRej[c] = d.mAdmissionRejected.Bind(telemetry.Labels{"class": name, "policy": admitter.Name()})
		}
		for _, ds := range d.fleet {
			for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
				ds.gQueue[c] = d.mDevQueueLen.Bind(telemetry.Labels{"device": ds.id, "class": c.String()})
			}
			ds.gUtil = d.mDevUtil.Bind(telemetry.Labels{"device": ds.id})
		}
		// Cache counters exist only when caching is on, so a cache-less
		// daemon's metrics output is unchanged.
		if cfg.ProgramCache > 0 {
			d.mCacheHits = cfg.Registry.MustCounter("daemon_program_cache_hits_total", "Program-cache hits at dispatch, by device.")
			d.mCacheMisses = cfg.Registry.MustCounter("daemon_program_cache_misses_total", "Program-cache misses at dispatch, by device.")
			d.mCacheEvic = cfg.Registry.MustCounter("daemon_program_cache_evictions_total", "Program-cache LRU evictions, by device.")
			for _, ds := range d.fleet {
				ds.gCacheHits = d.mCacheHits.Bind(telemetry.Labels{"device": ds.id})
				ds.gCacheMisses = d.mCacheMisses.Bind(telemetry.Labels{"device": ds.id})
				ds.gCacheEvictions = d.mCacheEvic.Bind(telemetry.Labels{"device": ds.id})
			}
		}
	}
	for _, ds := range d.fleet {
		ds.dev.SetTaskListener(d.onDeviceTask)
	}
	return d, nil
}

// notify delivers a lifecycle event snapshot to the configured listener. j is
// a value copy the caller must have taken while holding d.mu (or before the
// job became reachable by other goroutines), so the snapshot cannot tear
// against a concurrent state change. Callers may hold d.mu or a deviceState
// mutex, so listeners must not call back into the daemon (see
// Config.JobListener).
func (d *Daemon) notify(t JobEventType, j Job) {
	if d.cfg.JobListener == nil {
		return
	}
	d.cfg.JobListener(JobEvent{Type: t, At: d.cfg.Clock.Now(), Job: j})
}

// Devices lists the managed fleet in routing order.
func (d *Daemon) Devices() []*device.Device {
	out := make([]*device.Device, len(d.fleet))
	for i, ds := range d.fleet {
		out[i] = ds.dev
	}
	return out
}

// RouterName reports the active routing policy.
func (d *Daemon) RouterName() string { return d.router.Name() }

// AdmissionName reports the active admission policy.
func (d *Daemon) AdmissionName() string { return d.admitter.Name() }

// OrderName reports the active within-class queueing order.
func (d *Daemon) OrderName() string { return d.order.Name() }

// PriorityName reports the active priority (dynamic-urgency) policy.
func (d *Daemon) PriorityName() string { return d.priority.Name() }

// priorityStatusName renders the priority axis for status reports: empty
// under the constant default, so reports predating the axis are unchanged.
func (d *Daemon) priorityStatusName() string {
	if name := d.priority.Name(); name != Priorities.Default() {
		return name
	}
	return ""
}

// primary returns the first partition — the whole fleet in single-device
// deployments, and the back-compat answer for endpoints that predate fleets.
func (d *Daemon) primary() *deviceState { return d.fleet[0] }

// --- sessions ---

// OpenSession creates a session for a user and returns its token.
func (d *Daemon) OpenSession(user string) (*Session, error) {
	if user == "" {
		return nil, errors.New("daemon: session requires a user name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSess++
	s := &Session{
		Token:     fmt.Sprintf("sess-%d-%08x", d.nextSess, d.rng.Uint32()),
		User:      user,
		CreatedAt: d.cfg.Clock.Now(),
	}
	d.sessions[s.Token] = s
	if d.mSessions != nil {
		d.mSessions.Set(nil, float64(len(d.sessions)))
	}
	return s, nil
}

// CloseSession ends a session; its queued jobs are cancelled, running jobs
// are left to finish (accounting continuity for the hosting site).
func (d *Daemon) CloseSession(token string) error {
	d.mu.Lock()
	s, ok := d.sessions[token]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("daemon: unknown session")
	}
	delete(d.sessions, token)
	var toCancel []string
	for _, id := range s.Jobs {
		if j := d.jobs[id]; j != nil && j.State == JobQueued {
			toCancel = append(toCancel, id)
		}
	}
	if d.mSessions != nil {
		d.mSessions.Set(nil, float64(len(d.sessions)))
	}
	d.mu.Unlock()
	for _, id := range toCancel {
		_ = d.CancelJob(token, id, true)
	}
	return nil
}

// session validates a token.
func (d *Daemon) session(token string) (*Session, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[token]
	if !ok {
		return nil, errors.New("daemon: invalid session token")
	}
	return s, nil
}

// --- job submission and scheduling ---

// SubmitRequest is a job submission.
type SubmitRequest struct {
	// Program is the serialized qir.Program payload.
	Program []byte
	// Class is the queue class; use ClassFromSlurmPriority when the job
	// arrives from a Slurm allocation.
	Class sched.Class
	// Pattern is the optional Table 1 workload hint.
	Pattern sched.Pattern
	// Source labels the submission path ("slurm", "cloud", …). Empty
	// defaults to "slurm", the primary intake the paper describes.
	Source string
	// Device pins the job to a named fleet partition, bypassing the
	// router. Empty lets the router pick.
	Device string
	// ExpectedQPUSeconds optionally declares how long the job will hold
	// the QPU. When zero the daemon estimates it from the program and the
	// target device spec, so the hint is always available to the
	// shortest-first policy.
	ExpectedQPUSeconds float64
	// DeadlineSeconds optionally declares the submitter's completion
	// deadline, in seconds from submission. Zero means none: the job is
	// scored against per-class fallback contracts by deadline-aware
	// priority policies and excluded from deadline-hit accounting.
	DeadlineSeconds float64
}

// Submit walks a submission through the four pipeline stages (see
// pipeline.go): admission decides whether — and at what class — the job
// enters, routing picks its partition, queueing inserts it under the
// within-class order, and dispatch runs the partition's loop. A shed
// submission returns a *RejectedError carrying the terminal rejected job
// record.
func (d *Daemon) Submit(token string, req SubmitRequest) (*Job, error) {
	s, err := d.session(token)
	if err != nil {
		return nil, err
	}
	if req.Class < sched.ClassDev || req.Class > sched.ClassProduction {
		return nil, fmt.Errorf("daemon: invalid class %d", req.Class)
	}
	if req.ExpectedQPUSeconds < 0 {
		return nil, fmt.Errorf("daemon: negative expected QPU seconds %g", req.ExpectedQPUSeconds)
	}
	if req.DeadlineSeconds < 0 {
		return nil, fmt.Errorf("daemon: negative deadline seconds %g", req.DeadlineSeconds)
	}
	// Pipeline-stage timestamps for tracing, buffered in locals — the job ID
	// the spans carry is only minted after admission. In pure replay the
	// stages collapse to instants (the clock does not advance inside Submit);
	// under the live wall-clock pump they carry real deliberation time.
	traced := d.traced()
	var tSubmit, tValidate, tAdmit time.Duration
	if traced {
		tSubmit = d.cfg.Clock.Now()
	}
	// Validation precedes admission so a submission no partition could run
	// (bad pin, undecodable or invalid program) cannot drain a stateful
	// policy's quota: tokens are spent only on submissions some partition
	// could execute. The pinned device's spec is authoritative for pins;
	// otherwise any one fleet spec accepting the program suffices. Residual
	// (heterogeneous fleets only): a spec-blind router may still land on a
	// partition whose re-check below fails after admission spent the token —
	// capability-aware routing is the open ROADMAP fix.
	prog, progHash, err := cachedProgram(req.Program)
	if err != nil {
		return nil, err
	}
	var vspec qir.DeviceSpec
	if req.Device != "" {
		pinned, err := d.lookupDevice(req.Device)
		if err != nil {
			return nil, err
		}
		vspec = pinned.dev.Spec()
		if err := qir.ValidateCached(prog, &vspec); err != nil {
			return nil, fmt.Errorf("daemon: program rejected: %w", err)
		}
	} else {
		var lastErr error
		found := false
		var seen map[string]bool
		for _, ds := range d.fleet {
			sp := ds.dev.Spec()
			if seen[sp.Name] {
				continue
			}
			if len(d.fleet) > 1 {
				if seen == nil {
					seen = make(map[string]bool, 1)
				}
				seen[sp.Name] = true
			}
			if err := qir.ValidateCached(prog, &sp); err != nil {
				lastErr = err
				continue
			}
			vspec = sp
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("daemon: program rejected: %w", lastErr)
		}
	}
	// Resolve the duration hint before admission too, so policies — and the
	// terminal record of a shed submission — see the daemon's estimate, not
	// a missing hint. The estimate is re-derived below if routing lands on
	// a different spec.
	estimated := req.ExpectedQPUSeconds == 0
	if estimated {
		req.ExpectedQPUSeconds = prog.EstimatedQPUSeconds(&vspec)
	}
	if traced {
		tValidate = d.cfg.Clock.Now()
	}
	// Stage 1: admission. Pins bypass the router, not the door; a rejected
	// submission terminates here with a queryable job record.
	dec := d.admitStage(req, s.User)
	if traced {
		tAdmit = d.cfg.Clock.Now()
	}
	if dec.Outcome == admission.Rejected {
		j := d.recordRejected(s, token, req, dec, d.retryAfterHint(req.Class))
		if traced {
			cls := req.Class.String()
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageValidate, Class: cls, Start: tSubmit, End: tValidate})
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageAdmission, Class: cls, Start: tValidate, End: tAdmit,
				Detail: d.admissionDetail(dec)})
			if d.spanMarks {
				d.emitSpan(trace.Span{Job: j.ID, Stage: trace.MarkRejected, Class: cls, Start: j.FinishedAt, End: j.FinishedAt})
			}
		}
		return nil, &RejectedError{Job: j, Reason: dec.Reason}
	}
	// Enforce the Decision contract on custom policies before the class is
	// acted on: Accepted keeps the requested class (the zero Class value is
	// ClassDev, so an unset field must not silently down-class the job),
	// Downgraded must go strictly down and stay in range.
	switch {
	case dec.Outcome == admission.Accepted && dec.Class != req.Class:
		return nil, fmt.Errorf("daemon: admission policy %q accepted a %s job at class %d (use the Downgraded outcome to change class)",
			d.admitter.Name(), req.Class, dec.Class)
	case dec.Outcome == admission.Downgraded && (dec.Class < sched.ClassDev || dec.Class >= req.Class):
		return nil, fmt.Errorf("daemon: admission policy %q downgraded a %s job to invalid class %d",
			d.admitter.Name(), req.Class, dec.Class)
	case dec.Outcome != admission.Accepted && dec.Outcome != admission.Downgraded:
		return nil, fmt.Errorf("daemon: admission policy %q returned unknown outcome %q", d.admitter.Name(), dec.Outcome)
	}
	class := dec.Class
	// Stage 2: routing.
	ds, err := d.route(class, req.Pattern, req.Device, prog, progHash)
	if err != nil {
		return nil, err
	}
	// The reservation lasts until this submission is enqueued (or fails),
	// i.e. until the job is visible to the next routing snapshot; it is
	// released eagerly right after queue.Push so the synchronous dispatch
	// below does not double-count the job in the router's load view.
	released := false
	release := func() {
		if !released {
			released = true
			d.routeDone(ds)
		}
	}
	defer release()
	// Heterogeneous fleets only: the router may land on a different spec
	// than the one validated pre-admission. Re-check so users get immediate
	// feedback instead of a failed device task later, and re-derive a
	// daemon-made duration estimate against the device that will actually
	// run the job (a submitter-declared hint is never touched).
	if spec := ds.dev.Spec(); spec.Name != vspec.Name {
		if err := qir.ValidateCached(prog, &spec); err != nil {
			return nil, fmt.Errorf("daemon: program rejected: %w", err)
		}
		if estimated {
			req.ExpectedQPUSeconds = prog.EstimatedQPUSeconds(&spec)
		}
	}
	// Tighten the daemon-made estimate with the setup model: a cold dispatch
	// occupies the device for setup + execution, so the hint the shortest-
	// first order and admission policies see should include it — unless the
	// routed partition is already warm for this program, in which case the
	// hit will skip setup and the bare execution estimate is the tight one.
	// (Submitter-declared hints are never touched; SetupSeconds > 0 implies
	// caching is on, so the cache-less path is unchanged.)
	if estimated && d.cfg.SetupSeconds > 0 && !ds.cache.contains(progHash) {
		req.ExpectedQPUSeconds += d.cfg.SetupSeconds
	}
	d.mu.Lock()
	now := d.cfg.Clock.Now()
	j := newJob()
	*j = Job{
		ID:                 d.allocJobIDLocked(),
		Session:            token,
		User:               s.User,
		Class:              class,
		RequestedClass:     req.Class,
		Pattern:            req.Pattern,
		Source:             defaultSource(req.Source),
		Device:             ds.id,
		Pinned:             req.Device != "",
		ExpectedQPUSeconds: req.ExpectedQPUSeconds,
		State:              JobQueued,
		DeadlineSeconds:    req.DeadlineSeconds,
		SubmittedAt:        now,
		payload:            req.Program,
		prog:               prog,
		progHash:           progHash,
		enqueuedAt:         now,
	}
	if dec.Outcome != admission.Accepted {
		j.AdmissionOutcome = string(dec.Outcome)
		j.AdmissionReason = dec.Reason
	}
	d.jobs[j.ID] = j
	s.Jobs = append(s.Jobs, j.ID)
	// Emit under d.mu, before the queue push: the snapshot cannot race a
	// concurrent cancel and "submitted" always precedes "started" in
	// listener order.
	d.notify(JobEventSubmitted, *j)
	if traced {
		cls := class.String()
		routeDetail := d.router.Name()
		if req.Device != "" {
			routeDetail = "pinned"
		}
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageValidate, Class: cls, Start: tSubmit, End: tValidate})
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageAdmission, Class: cls, Start: tValidate, End: tAdmit,
			Detail: d.admissionDetail(dec)})
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageRoute, Class: cls, Device: ds.id,
			Start: tAdmit, End: now, Detail: routeDetail})
	}
	d.mu.Unlock()

	// Stage 3: queueing — the partition's ClassQueue holds the job under
	// class priority; the configured OrderPolicy acts within the class at
	// pop time. Stage 4: dispatch.
	if err := d.enqueue(ds, j); err != nil {
		return nil, err
	}
	release()
	d.emitQueueTelemetry()
	d.dispatchDevice(ds)
	return d.jobSnapshot(j.ID)
}

// route picks the target partition and reserves an in-flight slot on it (the
// caller must release via routeDone once the job is enqueued or abandoned).
// An explicit pin wins; otherwise the router chooses from a point-in-time
// fleet snapshot whose load view includes other submissions still in flight.
// The chosen class, pattern and program identity travel on a throwaway job
// record so routers can specialize — the affinity scorer probes partition
// caches by fingerprint, the capability scorer validates the decoded program
// — without the daemon pre-creating the real one.
func (d *Daemon) route(class sched.Class, pattern sched.Pattern, pin string, prog *qir.Program, progHash uint64) (*deviceState, error) {
	d.routeMu.Lock()
	defer d.routeMu.Unlock()
	var picked *deviceState
	switch {
	case pin != "":
		ds, err := d.lookupDevice(pin)
		if err != nil {
			return nil, err
		}
		picked = ds
	case len(d.fleet) == 1:
		picked = d.fleet[0]
	default:
		idx := d.router.Pick(&Job{Class: class, Pattern: pattern, prog: prog, progHash: progHash}, d.fleetInfosLocked())
		if idx < 0 || idx >= len(d.fleet) {
			return nil, fmt.Errorf("daemon: router %q picked invalid device index %d", d.router.Name(), idx)
		}
		picked = d.fleet[idx]
	}
	picked.mu.Lock()
	picked.inflight++
	picked.mu.Unlock()
	return picked, nil
}

// fleetInfosLocked builds the router's point-in-time fleet load view — the
// single definition shared by routing and requeue, so the two can never
// disagree about what counts as load. Caller must hold routeMu.
func (d *Daemon) fleetInfosLocked() []DeviceInfo {
	infos := make([]DeviceInfo, len(d.fleet))
	for i, ds := range d.fleet {
		info := DeviceInfo{
			ID:     ds.id,
			Index:  i,
			Status: ds.dev.Status(),
			cache:  ds.cache,
			spec:   &ds.spec,
		}
		ds.mu.Lock()
		info.Queued = ds.queue.Len() + ds.inflight
		if ds.running != nil {
			info.Busy = true
			info.RunningClass = ds.running.Class
		}
		ds.mu.Unlock()
		infos[i] = info
	}
	return infos
}

// routeDone releases a route reservation once the job is in the partition's
// queue (visible to the next routing snapshot) or the submission failed.
func (d *Daemon) routeDone(ds *deviceState) {
	ds.mu.Lock()
	ds.inflight--
	ds.mu.Unlock()
}

func (d *Daemon) deviceIDs() []string {
	out := make([]string, len(d.fleet))
	for i, ds := range d.fleet {
		out[i] = ds.id
	}
	return out
}

// lookupDevice resolves a partition ID, listing the valid IDs on a miss.
func (d *Daemon) lookupDevice(id string) (*deviceState, error) {
	ds, ok := d.byDevice[id]
	if !ok {
		return nil, fmt.Errorf("daemon: unknown device %q (have: %s)", id, strings.Join(d.deviceIDs(), ", "))
	}
	return ds, nil
}

// queueLens snapshots a partition queue's depth by class name.
func queueLens(q *sched.ClassQueue) map[string]int {
	return map[string]int{
		"production": q.LenClass(sched.ClassProduction),
		"test":       q.LenClass(sched.ClassTest),
		"dev":        q.LenClass(sched.ClassDev),
	}
}

// allocJobIDLocked mints the next job ID — the single definition of the ID
// scheme, shared by accepted and rejected records. Caller holds d.mu.
func (d *Daemon) allocJobIDLocked() string {
	d.nextJob++
	return "job-" + strconv.Itoa(d.nextJob)
}

// defaultSource applies the default intake label ("slurm", the primary
// intake the paper describes) to accepted and rejected records alike.
func defaultSource(s string) string {
	if s == "" {
		return "slurm"
	}
	return s
}

// enqueue puts the job on the partition's queue. A push the queue refuses
// fails the job — terminal state, Finished event and span like any other
// failure — rather than leaving a queued record no dispatch will ever reach.
func (d *Daemon) enqueue(ds *deviceState, j *Job) error {
	err := ds.queue.Push(d.queueItem(j))
	if err != nil {
		d.finishJob(j, JobFailed, nil, err)
	}
	return err
}

// queueItem builds the scheduler item for a job, carrying the class,
// pattern and duration hints the queue policies consume.
func (d *Daemon) queueItem(j *Job) *sched.Item {
	it := &sched.Item{
		ID:          j.ID,
		Class:       j.Class,
		Pattern:     j.Pattern,
		Enqueued:    j.SubmittedAt,
		ExpectedQPU: simclock.Seconds(j.ExpectedQPUSeconds),
		Payload:     j,
	}
	if j.DeadlineSeconds > 0 {
		// The absolute deadline is anchored to the original submission, so a
		// preemption requeue keeps — not resets — the job's urgency.
		it.Deadline = j.SubmittedAt + simclock.Seconds(j.DeadlineSeconds)
	}
	return it
}

func decodeAndValidate(payload []byte, spec qir.DeviceSpec) (*qir.Program, error) {
	prog := new(qir.Program)
	if err := prog.UnmarshalJSON(payload); err != nil {
		return nil, fmt.Errorf("daemon: decoding program: %w", err)
	}
	if err := prog.Validate(&spec); err != nil {
		return nil, fmt.Errorf("daemon: program rejected: %w", err)
	}
	return prog, nil
}

// dispatchDevice runs the partition's dispatch loop, or — when a loop is
// already active on another goroutine — records a wakeup so that loop
// re-checks the queue before exiting. This keeps dispatch serial per device
// while different partitions dispatch fully concurrently.
func (d *Daemon) dispatchDevice(ds *deviceState) {
	ds.mu.Lock()
	ds.wakeups++
	if ds.dispatching {
		ds.mu.Unlock()
		return
	}
	ds.dispatching = true
	ds.mu.Unlock()
	for {
		ds.mu.Lock()
		seen := ds.wakeups
		ds.mu.Unlock()
		progress := d.dispatchOnce(ds)
		ds.mu.Lock()
		if !progress && ds.wakeups == seen {
			ds.dispatching = false
			ds.mu.Unlock()
			return
		}
		ds.mu.Unlock()
	}
}

// dispatchOnce makes one dispatch attempt on the partition: preempt a
// running lower-class job when a production job waits, or start the next
// queued job if the partition is idle. It reports whether it changed state
// (and the loop should try again).
func (d *Daemon) dispatchOnce(ds *deviceState) bool {
	// Hold the queue through maintenance windows: jobs wait rather than
	// fail, and maintenance_off re-dispatches.
	if ds.dev.Status() == device.StatusMaintenance {
		return false
	}
	next := ds.queue.Peek()
	if next == nil {
		return false
	}
	// Re-check the peeked job under d.mu: a concurrent CancelJob flips the
	// state before removing the queue entry, so a terminal state here means
	// the item is a leftover — drop it rather than let a dead production
	// job preempt live work.
	if nj, ok := next.Payload.(*Job); ok {
		d.mu.Lock()
		stale := nj.State != JobQueued
		d.mu.Unlock()
		if stale {
			ds.queue.Remove(nj.ID)
			return true
		}
	}
	ds.mu.Lock()
	if run := ds.running; run != nil {
		if d.cfg.EnablePreemption && sched.ShouldPreempt(next.Class, run.Class) {
			d.mu.Lock()
			// Re-verify the waiting job under the same d.mu hold that
			// CancelJob uses to flip states: between the head check above
			// and here it may have been cancelled, and a dead job must
			// not get a victim preempted on its behalf.
			if nj, ok := next.Payload.(*Job); ok && nj.State != JobQueued {
				d.mu.Unlock()
				ds.mu.Unlock()
				ds.queue.Remove(next.ID)
				return true
			}
			taskID := run.DeviceTask
			run.Preemptions++
			d.preemptTotal++
			d.notify(JobEventPreempted, *run)
			d.mu.Unlock()
			ds.mu.Unlock()
			// Cancelling the device task triggers onDeviceTask, which
			// requeues the victim on this partition and wakes the loop.
			_ = ds.dev.Cancel(taskID)
			return true
		}
		ds.mu.Unlock()
		return false
	}
	ds.mu.Unlock()

	item := d.popNext(ds)
	if item == nil {
		return false
	}
	j := item.Payload.(*Job)
	d.mu.Lock()
	if j.State != JobQueued {
		d.mu.Unlock()
		return true // stale item (cancelled while queued); try the next one
	}
	payload := j.payload
	prog := j.prog
	// Consult the partition's program cache at the moment of dispatch: a warm
	// entry means this partition ran the program recently and skips the cold
	// setup cost; a miss warms the cache (possibly evicting the LRU entry)
	// and pays Config.SetupSeconds of extra device occupancy. The outcome is
	// recorded on the job before the Started event fires, so listeners (the
	// loadgen SLO analyzer) see it on every start. The cache mutex is a leaf
	// lock, safe to take under d.mu.
	var setup float64
	if ds.cache != nil && j.progHash != 0 {
		hit, evicted := ds.cache.touch(j.progHash)
		if hit {
			j.Cache = cacheHit
			ds.gCacheHits.Inc(1)
		} else {
			j.Cache = cacheMiss
			setup = d.cfg.SetupSeconds
			ds.gCacheMisses.Inc(1)
			if evicted {
				ds.gCacheEvictions.Inc(1)
			}
		}
	}
	d.mu.Unlock()

	// The program was decoded and validated against this partition's spec at
	// submission (and requeue only ever targets same-spec partitions), so
	// dispatch reuses the cached decode; the legacy decode-and-validate runs
	// only for records that somehow lack one.
	var err error
	if prog == nil {
		prog, err = decodeAndValidate(payload, ds.dev.Spec())
	}
	if err == nil {
		ds.mu.Lock()
		ds.submitting = true
		ds.mu.Unlock()
		var taskID string
		taskID, err = ds.dev.SubmitWithSetup(prog, setup)
		if err == nil {
			d.startJob(ds, j, taskID)
			d.emitQueueTelemetry()
			return true
		}
		ds.mu.Lock()
		ds.submitting = false
		ds.mu.Unlock()
	}
	// Submission failed (validation drift, maintenance window, ...).
	d.finishJob(j, JobFailed, nil, err)
	return true
}

// composeRanker states order × priority as one rank — the priority's key,
// then the order's lane and key, then push order. The constant priority adds
// no key, so constant × fifo is push order by construction. When either
// policy cannot state its part there is no indexed rank: ranker is nil, and
// tie is what is left of the order for popNext's scoring fallback — its rank
// if it states one that is more than push order.
func composeRanker(order OrderPolicy, priority PriorityPolicy) (ranker, tie *sched.Ranker) {
	ro, ok := order.(rankedOrder)
	if !ok {
		return nil, nil
	}
	r := ro.rank()
	rp, ok := priority.(rankedPriority)
	if !ok {
		if r.Lane == nil && r.Ord == nil {
			return nil, nil
		}
		return nil, r
	}
	if pri := rp.rankKey(); pri != nil {
		r = &sched.Ranker{Pri: pri, Lane: r.Lane, Ord: r.Ord}
	}
	return r, nil
}

// popNext removes the next item under the configured within-class order and
// priority — the queueing stage's policy hook. Every built-in combination is
// one indexed PopRanked. A custom policy on either axis dispatches through
// its own interface instead, by linear scan: a custom priority re-scores the
// backlog at this tick with score ties going to the order's rank, and a
// custom order under the constant priority pops for itself.
func (d *Daemon) popNext(ds *deviceState) *sched.Item {
	if r := d.ranker; r != nil {
		if r.Lane == nil {
			return ds.queue.PopRanked(r, nil)
		}
		// Lane weights are the live per-user usage: read in place under
		// d.mu (the queue's own mutex is a leaf lock), not copied per pop.
		d.mu.Lock()
		defer d.mu.Unlock()
		return ds.queue.PopRanked(r, d.usageByUser)
	}
	if _, constant := d.priority.(constantPriority); constant {
		return d.order.Pop(ds.queue, d.usageSnapshot)
	}
	var tie func(a, b *sched.Item) bool
	if r := d.tieOrder; r != nil {
		var usage map[string]float64
		if r.Lane != nil {
			usage = d.usageSnapshot()
		}
		tie = scoreTie(r, usage)
	}
	now := d.cfg.Clock.Now()
	return ds.queue.PopByScore(func(it *sched.Item) float64 {
		return d.priority.Score(it, now)
	}, tie)
}

// usageSnapshot copies the per-user accumulated QPU-seconds map — the
// fair-share order's key — outside the queue lock, so the pop comparator
// never nests d.mu inside the queue's own mutex.
func (d *Daemon) usageSnapshot() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	usage := make(map[string]float64, len(d.usageByUser))
	for u, v := range d.usageByUser {
		usage[u] = v
	}
	return usage
}

// startJob records a successful device submission. If the task's terminal
// notification already raced ahead (another goroutine advanced the clock),
// the buffered orphan state is settled immediately; if the job was cancelled
// between dispatchOnce's queued-state check and the device submission, the
// device task is withdrawn instead of resurrecting the job.
func (d *Daemon) startJob(ds *deviceState, j *Job, taskID string) {
	now := d.cfg.Clock.Now()
	ds.mu.Lock()
	ds.submitting = false
	st, orphaned := ds.orphans[taskID]
	// Drain the buffer wholesale: with serial per-device dispatch, any
	// other entry is a stray from a task the daemon never started.
	clear(ds.orphans)
	if !orphaned {
		// Register even a cancelled job's task so the device's
		// cancellation callback flows through the normal settleTask path
		// (which sees the terminal job state and leaves it alone).
		ds.running = j
		ds.byTask[taskID] = j
	}
	d.mu.Lock()
	cancelled := j.State != JobQueued
	if !cancelled && !orphaned {
		// Orphaned tasks already finished, so `now` is post-completion —
		// marking them running or recording a queue wait here would
		// inflate the wait metrics by the execution time; settleTask
		// finalizes them directly from queued.
		j.State = JobRunning
		j.StartedAt = now
		j.DeviceTask = taskID
		wait := now - j.SubmittedAt
		d.waitSum[j.Class] += wait
		d.waitCount[j.Class]++
		d.bWait[j.Class].Observe(wait.Seconds())
		d.feedWait(j.Class, wait, now)
		d.notify(JobEventStarted, *j)
		if d.traced() {
			cls := j.Class.String()
			if d.spanMarks {
				// Close the partition's idle occupancy span (ds.mu is held).
				if now > ds.occSince {
					d.emitSpan(trace.Span{Stage: trace.StageIdle, Device: ds.id, Start: ds.occSince, End: now})
				}
				ds.occSince = now
			}
			d.emitSpan(trace.Span{Job: j.ID, Stage: waitStage(j), Class: cls, Device: ds.id,
				Start: j.enqueuedAt, End: now, Detail: cacheDetail(j.Cache)})
			if d.spanMarks {
				d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageDispatch, Class: cls, Device: ds.id,
					Start: now, End: now, Detail: taskID})
			}
		}
	}
	d.mu.Unlock()
	ds.mu.Unlock()
	switch {
	case orphaned:
		d.settleTask(ds, j, taskID, st)
	case cancelled:
		_ = ds.dev.Cancel(taskID)
	}
}

// onDeviceTask is the fleet-wide device listener: terminal device tasks are
// routed to their partition by device ID, then finish or requeue their
// daemon job and trigger that partition's next dispatch.
func (d *Daemon) onDeviceTask(deviceID, taskID string, state device.TaskState) {
	ds, ok := d.byDevice[deviceID]
	if !ok {
		return
	}
	ds.mu.Lock()
	j, ok := ds.byTask[taskID]
	if !ok {
		// While a submission is in flight, this may be its terminal state
		// racing ahead of registration — buffer it for startJob to
		// consume. Otherwise the task is not ours (e.g. a pre-existing
		// task on a FleetOf-wrapped device); ignore it.
		if ds.submitting {
			ds.orphans[taskID] = state
		}
		ds.mu.Unlock()
		return
	}
	delete(ds.byTask, taskID)
	if ds.running == j {
		ds.running = nil
		if d.spanMarks {
			// Close the partition's busy occupancy span (ds.mu is held).
			now := d.cfg.Clock.Now()
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageBusy, Class: j.Class.String(),
				Device: ds.id, Start: ds.occSince, End: now})
			ds.occSince = now
		}
	}
	ds.mu.Unlock()
	d.settleTask(ds, j, taskID, state)
}

// settleTask finalizes or requeues a job whose device task reached a
// terminal state, then re-dispatches the partition.
func (d *Daemon) settleTask(ds *deviceState, j *Job, taskID string, state device.TaskState) {
	switch state {
	case device.TaskCompleted:
		res, err := ds.dev.TaskResult(taskID)
		if err != nil {
			d.finishJob(j, JobFailed, nil, err)
		} else {
			d.mu.Lock()
			d.usageByUser[j.User] += res.QPUSeconds
			j.res = res
			d.mu.Unlock()
			d.finishJob(j, JobCompleted, nil, nil)
		}
	case device.TaskFailed:
		_, err := ds.dev.TaskResult(taskID)
		d.finishJob(j, JobFailed, nil, err)
	case device.TaskCancelled:
		d.mu.Lock()
		preempted := j.Preemptions > 0 && j.State == JobRunning
		wasCancelled := j.State == JobCancelled
		if preempted {
			j.State = JobQueued
			j.DeviceTask = ""
			now := d.cfg.Clock.Now()
			j.enqueuedAt = now
			if d.traced() {
				cls := j.Class.String()
				d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageExecute, Class: cls, Device: ds.id,
					Start: j.StartedAt, End: now, Detail: "preempted"})
				if d.spanMarks {
					d.emitSpan(trace.Span{Job: j.ID, Stage: trace.MarkPreempted, Class: cls, Device: ds.id,
						Start: now, End: now})
				}
			}
		}
		d.mu.Unlock()
		if preempted {
			// Cross-partition requeue: if another idle partition can take the
			// victim, re-route it through the router rather than pinning it
			// behind the production job that evicted it. Seniority (original
			// submit time) is preserved inside its class by FIFO on re-push.
			target := d.requeuePartition(j, ds)
			d.mu.Lock()
			if target != ds {
				j.Device = target.id
			}
			d.notify(JobEventRequeued, *j)
			if d.spanMarks {
				d.emitSpan(trace.Span{Job: j.ID, Stage: trace.MarkRequeued, Class: j.Class.String(),
					Device: target.id, Start: j.enqueuedAt, End: j.enqueuedAt})
			}
			d.mu.Unlock()
			_ = d.enqueue(target, j) // a refused push has failed the job
			if target != ds {
				d.routeDone(target)
				d.dispatchDevice(target)
			}
		} else if !wasCancelled {
			d.finishJob(j, JobCancelled, nil, nil)
		}
	}
	// The job now carries everything the task had to say (result, error,
	// timing): the daemon forgets a device task when it settles it, or every
	// finished task's program, result and clock event would outlive the job.
	ds.dev.Forget(taskID)
	d.emitQueueTelemetry()
	d.dispatchDevice(ds)
}

// requeuePartition picks where a preempted job waits next. The job stays on
// its original partition unless it is unpinned, the fleet has more than one
// partition, AND some other same-spec partition is completely idle — then the
// router re-picks from a fresh fleet snapshot (the first ROADMAP follow-up:
// work lost to preemption flows to idle capacity instead of queueing behind
// its preemptor). The router's pick is honored only when it lands on such an
// idle partition: a load-blind pick (round-robin pointing at a backlogged
// partition) must not strand the victim somewhere worse than where it was.
// When a move happens the returned partition carries an in-flight reservation
// the caller must release with routeDone after the queue push.
func (d *Daemon) requeuePartition(j *Job, orig *deviceState) *deviceState {
	if len(d.fleet) == 1 || j.Pinned {
		return orig
	}
	d.routeMu.Lock()
	defer d.routeMu.Unlock()
	origSpec := orig.dev.Spec().Name
	infos := d.fleetInfosLocked()
	// idleTarget reports whether partition i can absorb the victim now: not
	// the original, online, zero load, and the same spec the job's program
	// was validated against (heterogeneous fleets may mix specs).
	idleTarget := func(i int) bool {
		ds := d.fleet[i]
		return ds != orig && infos[i].Status == device.StatusOnline &&
			infos[i].load() == 0 && ds.dev.Spec().Name == origSpec
	}
	idleElsewhere := false
	for i := range infos {
		if idleTarget(i) {
			idleElsewhere = true
			break
		}
	}
	if !idleElsewhere {
		return orig
	}
	idx := d.router.Pick(&Job{Class: j.Class, Pattern: j.Pattern, prog: j.prog, progHash: j.progHash}, infos)
	if idx < 0 || idx >= len(d.fleet) || !idleTarget(idx) {
		return orig
	}
	target := d.fleet[idx]
	target.mu.Lock()
	target.inflight++
	target.mu.Unlock()
	return target
}

// finishJob finalizes a job's terminal state.
func (d *Daemon) finishJob(j *Job, state JobState, result []byte, err error) {
	d.mu.Lock()
	d.finishLocked(j, state, result, err)
	d.mu.Unlock()
}

// finishLocked is finishJob under an already-held d.mu — the single place a
// job turns terminal. It reports whether the transition happened (false when
// the job already reached a terminal state).
func (d *Daemon) finishLocked(j *Job, state JobState, result []byte, err error) bool {
	if j.State == JobCompleted || j.State == JobFailed || j.State == JobCancelled || j.State == JobRejected {
		return false
	}
	prior := j.State
	j.State = state
	j.FinishedAt = d.cfg.Clock.Now()
	j.result = result
	if err != nil {
		j.Error = err.Error()
	}
	d.settled = append(d.settled, j)
	if d.mJobs != nil {
		if b := d.bJobs[j.Class][state]; b != nil {
			b.Inc(1)
		} else {
			d.mJobs.Inc(telemetry.Labels{"class": j.Class.String(), "state": string(state)}, 1)
		}
	}
	if state == JobCompleted && j.ExpectedQPUSeconds > 0 {
		d.feedSlowdown(j.Class, (j.FinishedAt-j.SubmittedAt).Seconds()/j.ExpectedQPUSeconds, j.FinishedAt)
	}
	d.notify(JobEventFinished, *j)
	if d.traced() {
		cls := j.Class.String()
		// Deadline-carrying jobs annotate their terminal span with the
		// verdict; jobs without a deadline keep the bare detail, so traces
		// from deadline-less runs are unchanged.
		detail := string(state)
		if j.DeadlineSeconds > 0 {
			if state == JobCompleted && j.FinishedAt <= j.SubmittedAt+simclock.Seconds(j.DeadlineSeconds) {
				detail += " deadline=hit"
			} else {
				detail += " deadline=miss"
			}
		}
		switch prior {
		case JobRunning:
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageExecute, Class: cls, Device: j.Device,
				Start: j.StartedAt, End: j.FinishedAt, Detail: detail})
		case JobQueued:
			// Cancelled while waiting — or an orphaned completion whose
			// terminal device notification raced ahead of start bookkeeping.
			d.emitSpan(trace.Span{Job: j.ID, Stage: waitStage(j), Class: cls, Device: j.Device,
				Start: j.enqueuedAt, End: j.FinishedAt, Detail: detail})
		}
		if d.spanMarks {
			d.emitSpan(trace.Span{Job: j.ID, Stage: terminalMark(state), Class: cls, Device: j.Device,
				Start: j.FinishedAt, End: j.FinishedAt})
		}
	}
	return true
}

// CancelJob cancels a queued or running job. Sessions may cancel their own
// jobs; admin-initiated cancellations pass force=true.
func (d *Daemon) CancelJob(token, jobID string, force bool) error {
	d.mu.Lock()
	j, ok := d.jobs[jobID]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("daemon: unknown job %q", jobID)
	}
	if !force && j.Session != token {
		d.mu.Unlock()
		return errors.New("daemon: job belongs to another session")
	}
	ds := d.byDevice[j.Device]
	switch j.State {
	case JobQueued:
		// Flip to cancelled under the same lock hold as the state check so
		// a concurrent dispatcher popping the item sees the terminal state
		// and skips it; the queue entry is then removed best-effort.
		d.finishLocked(j, JobCancelled, nil, nil)
		d.mu.Unlock()
		if ds != nil {
			ds.queue.Remove(jobID)
		}
	case JobRunning:
		taskID := j.DeviceTask
		d.finishLocked(j, JobCancelled, nil, nil) // mark first so settleTask won't requeue
		d.mu.Unlock()
		if ds != nil {
			_ = ds.dev.Cancel(taskID)
		}
	default:
		d.mu.Unlock()
		return fmt.Errorf("daemon: job %s already %s", jobID, j.State)
	}
	d.emitQueueTelemetry()
	return nil
}

// jobSnapshot returns a copy of the job record.
func (d *Daemon) jobSnapshot(jobID string) (*Job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[jobID]
	if !ok {
		return nil, fmt.Errorf("daemon: unknown job %q", jobID)
	}
	cp := *j
	return &cp, nil
}

// JobStatus returns a session's view of a job.
func (d *Daemon) JobStatus(token, jobID string) (*Job, error) {
	if _, err := d.session(token); err != nil {
		return nil, err
	}
	d.mu.Lock()
	j, ok := d.jobs[jobID]
	if !ok || j.Session != token {
		d.mu.Unlock()
		return nil, fmt.Errorf("daemon: unknown job %q", jobID)
	}
	cp := *j
	d.mu.Unlock()
	return &cp, nil
}

// JobResult returns the serialized result of a completed job.
func (d *Daemon) JobResult(token, jobID string) ([]byte, error) {
	j, err := d.JobStatus(token, jobID)
	if err != nil {
		return nil, err
	}
	switch j.State {
	case JobCompleted:
		d.mu.Lock()
		rec := d.jobs[jobID]
		if rec.result == nil && rec.res != nil {
			raw, mErr := json.Marshal(rec.res)
			if mErr != nil {
				d.mu.Unlock()
				return nil, mErr
			}
			rec.result = raw
		}
		res := rec.result
		d.mu.Unlock()
		return res, nil
	case JobFailed:
		return nil, fmt.Errorf("daemon: job failed: %s", j.Error)
	case JobCancelled:
		return nil, errors.New("daemon: job was cancelled")
	default:
		return nil, qrmi.ErrResultNotReady
	}
}

// --- admin plane ---

// AdminAuthorized checks the admin token.
func (d *Daemon) AdminAuthorized(token string) bool {
	return d.cfg.AdminToken != "" && token == d.cfg.AdminToken
}

// DeviceReport is the per-partition slice of the admin overview: the device
// snapshot (which carries status and utilization) plus this partition's
// daemon-level queue depths.
type DeviceReport struct {
	ID           string          `json:"id"`
	Device       device.Snapshot `json:"device"`
	QueuedByName map[string]int  `json:"queued_by_class"`
	Running      string          `json:"running_job,omitempty"`
}

// StatusReport is the admin overview. The top-level Device/QueuedByName/
// Running fields aggregate the fleet (Device is the first partition, kept
// for single-device consumers); Devices carries the per-partition detail.
type StatusReport struct {
	Device  device.Snapshot `json:"device"`
	Devices []DeviceReport  `json:"devices"`
	Router  string          `json:"router"`
	// Admission and Scheduler name the other two policy axes of the submit
	// pipeline (stage 1 and stage 3); Rejected counts submissions the
	// admission stage shed over the daemon's lifetime.
	Admission string `json:"admission"`
	Scheduler string `json:"scheduler"`
	// Priority names the dynamic-urgency axis composing with the scheduler
	// order (omitted for the constant default).
	Priority     string                   `json:"priority,omitempty"`
	Rejected     int                      `json:"rejected_total"`
	Sessions     int                      `json:"sessions"`
	QueuedByName map[string]int           `json:"queued_by_class"`
	Running      string                   `json:"running_job,omitempty"`
	Preemptions  int                      `json:"preemptions_total"`
	MeanWait     map[string]time.Duration `json:"mean_wait_by_class"`
	// JobsBySource counts all jobs ever accepted per intake path, so the
	// hosting site can see how much work arrives via Slurm versus a cloud
	// interface (§3.3 envisions multiple sources feeding one daemon).
	JobsBySource map[string]int `json:"jobs_by_source"`
}

// AdminStatus summarizes the whole node.
func (d *Daemon) AdminStatus() StatusReport {
	rep := StatusReport{
		Router:       d.router.Name(),
		Admission:    d.admitter.Name(),
		Scheduler:    d.order.Name(),
		Priority:     d.priorityStatusName(),
		QueuedByName: map[string]int{"production": 0, "test": 0, "dev": 0},
		MeanWait:     make(map[string]time.Duration),
		JobsBySource: make(map[string]int),
	}
	for _, ds := range d.fleet {
		dr := DeviceReport{
			ID:           ds.id,
			Device:       ds.dev.AdminSnapshot(),
			QueuedByName: queueLens(ds.queue),
		}
		ds.mu.Lock()
		if ds.running != nil {
			dr.Running = ds.running.ID
		}
		ds.mu.Unlock()
		for name, n := range dr.QueuedByName {
			rep.QueuedByName[name] += n
		}
		if rep.Running == "" && dr.Running != "" {
			rep.Running = dr.Running
		}
		rep.Devices = append(rep.Devices, dr)
	}
	rep.Device = rep.Devices[0].Device
	d.mu.Lock()
	defer d.mu.Unlock()
	rep.Sessions = len(d.sessions)
	rep.Preemptions = d.preemptTotal
	rep.Rejected = d.rejectedTotal
	for _, j := range d.jobs {
		rep.JobsBySource[j.Source]++
	}
	for class, n := range d.waitCount {
		if n > 0 {
			rep.MeanWait[class.String()] = d.waitSum[class] / time.Duration(n)
		}
	}
	return rep
}

// ListJobs returns all job snapshots, newest first, for the admin plane.
func (d *Daemon) ListJobs() []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		cp := *j
		out = append(out, &cp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SubmittedAt > out[b].SubmittedAt })
	return out
}

// LowLevelOp executes a gated low-level control operation (§2.5) across the
// whole fleet: only allowlisted operations pass, providing the safeguard
// indirection the paper argues must live at the daemon.
func (d *Daemon) LowLevelOp(op string) (string, error) {
	return d.lowLevelOp(op, d.fleet)
}

// LowLevelOpDevice executes a gated low-level control operation on one named
// partition.
func (d *Daemon) LowLevelOpDevice(op, deviceID string) (string, error) {
	ds, err := d.lookupDevice(deviceID)
	if err != nil {
		return "", err
	}
	return d.lowLevelOp(op, []*deviceState{ds})
}

func (d *Daemon) lowLevelOp(op string, targets []*deviceState) (string, error) {
	allowed := false
	for _, a := range d.cfg.AllowedLowLevelOps {
		if a == op {
			allowed = true
			break
		}
	}
	if !allowed {
		return "", fmt.Errorf("daemon: low-level op %q not allowed on this site (allowed: %v)", op, d.cfg.AllowedLowLevelOps)
	}
	switch op {
	case "recalibrate":
		for _, ds := range targets {
			ds.dev.Recalibrate()
		}
		return "recalibrated", nil
	case "qa_check":
		healthy := true
		for _, ds := range targets {
			if !ds.dev.RunQACheck() {
				healthy = false
			}
		}
		if healthy {
			return "qa passed", nil
		}
		return "qa failed: device degraded", nil
	case "maintenance_on":
		for _, ds := range targets {
			ds.dev.StartMaintenance()
		}
		return "maintenance started", nil
	case "maintenance_off":
		for _, ds := range targets {
			ds.dev.EndMaintenance()
			d.dispatchDevice(ds)
		}
		return "maintenance ended", nil
	default:
		return "", fmt.Errorf("daemon: low-level op %q allowlisted but not implemented", op)
	}
}

func (d *Daemon) emitQueueTelemetry() {
	if d.mQueueLen == nil && d.cfg.TSDB == nil {
		return
	}
	classes := []sched.Class{sched.ClassDev, sched.ClassTest, sched.ClassProduction}
	now := d.cfg.Clock.Now()
	totals := make(map[sched.Class]float64, len(classes))
	for _, ds := range d.fleet {
		for _, c := range classes {
			n := float64(ds.queue.LenClass(c))
			totals[c] += n
			ds.gQueue[c].Set(n)
			if d.cfg.TSDB != nil {
				d.cfg.TSDB.Append("daemon_device_queue_length",
					telemetry.Labels{"device": ds.id, "class": c.String()}, now, n)
			}
		}
		if ds.gUtil != nil {
			ds.gUtil.Set(ds.dev.Utilization())
		}
	}
	for _, c := range classes {
		d.bQueueTotal[c].Set(totals[c])
		if d.cfg.TSDB != nil {
			d.cfg.TSDB.Append("daemon_queue_length", telemetry.Labels{"class": c.String()}, now, totals[c])
		}
	}
}

// QueueLengths reports current queue depth by class, summed over the fleet.
func (d *Daemon) QueueLengths() map[string]int {
	out := map[string]int{"production": 0, "test": 0, "dev": 0}
	for _, ds := range d.fleet {
		for name, n := range queueLens(ds.queue) {
			out[name] += n
		}
	}
	return out
}

// CacheStatsByDevice snapshots each partition's program-cache counters, or
// nil when program caching is disabled.
func (d *Daemon) CacheStatsByDevice() map[string]*CacheStats {
	if d.cfg.ProgramCache <= 0 {
		return nil
	}
	out := make(map[string]*CacheStats, len(d.fleet))
	for _, ds := range d.fleet {
		out[ds.id] = ds.cache.stats()
	}
	return out
}

// QueueLengthsByDevice reports per-partition queue depth by class.
func (d *Daemon) QueueLengthsByDevice() map[string]map[string]int {
	out := make(map[string]map[string]int, len(d.fleet))
	for _, ds := range d.fleet {
		out[ds.id] = queueLens(ds.queue)
	}
	return out
}
