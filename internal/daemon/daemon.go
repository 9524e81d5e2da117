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
// sched.ClassQueue orders the work routed to it ("what order"); each
// partition has its own queue, running slot and dispatch loop.
//
// The daemon, its fleet, queues and policies and the clock they run on form
// one simulated world with one lock, the clock's (see simclock): nothing in
// this package takes another. Clock callbacks and listeners run inside it.
// Every exported method assumes its caller is inside too — in a callback,
// between Clock.Lock and Clock.Unlock, or as the only goroutine, as replay
// and sweep are — except Handler, whose handlers enter the world once per
// request and decode and encode JSON outside it.
package daemon

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/mint"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// Config parameterizes the daemon.
type Config struct {
	// Devices is the managed fleet of QPU partitions sharing the clock: at
	// least one, with unique device IDs.
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
	// History bounds how many terminal job records — with their results —
	// stay queryable after they finish (default 16384): that many jobs that
	// went through dispatch, and as many again shed at the door (see
	// retention.go for why the two are counted apart). Older records are
	// evicted, oldest first, and their IDs then read as unknown jobs;
	// counters and lifecycle events still see every job. Queued and running
	// jobs are never evicted, whatever their number.
	History int
	// Clock is the simulation clock shared with the devices. Required.
	Clock *simclock.Clock
	// AdminToken authenticates the admin plane. Required for admin APIs.
	AdminToken string
	// EnablePreemption lets production jobs preempt running lower-class
	// jobs (the paper's policy). It is off unless set: qcsd, closed-loop
	// capture and the experiments (all but the exclusive-FIFO baseline) set
	// it, and replay sets it unless the sweep's preemption axis says off.
	// Preemption is confined to the partition the production job was routed
	// to.
	EnablePreemption bool
	// AllowedLowLevelOps is the gated allowlist of low-level control
	// operations exposed to integrators (§2.5). Others are rejected.
	AllowedLowLevelOps []string
	// JobListener receives job lifecycle events when non-nil — the hook the
	// loadgen SLO analyzer and trace recorder attach to. The listener runs
	// inside the world: it must return quickly, must not call back into the
	// daemon and must not drive the clock (schedule follow-up work on the
	// clock instead).
	JobListener func(JobEvent)
	// SpanListener receives simulation-time pipeline and occupancy spans when
	// non-nil — the tracing analogue of JobListener, with the same contract:
	// it runs inside the world, must return quickly, and must not call back
	// into the daemon or drive the clock. Spans are pure functions of the simulation
	// clock and the scheduling decisions, so attaching a deterministic
	// listener preserves replay determinism.
	SpanListener trace.Listener
	// Flight, when non-nil, is a flight recorder the daemon additionally
	// feeds every span — the bounded in-process trace store behind
	// GET /api/v1/trace and `qctl trace <job>`. Usable with or without a
	// SpanListener. Like one, it lives inside the world and keeps no lock:
	// read it only from inside (the trace handlers copy it there).
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
	// Registry receives daemon metrics when non-nil, and TSDB queue
	// telemetry. Neither keeps a lock: the daemon writes and reads them
	// inside its world (GET /metrics and the metrics query too), so any
	// other caller holds the clock's lock, or drives the world itself.
	Registry *telemetry.Registry
	TSDB     *telemetry.TSDB
	// Seed drives session-token generation.
	Seed int64
}

// usePolicies fills each policy stage that is still nil from its spec (see
// internal/policy for the grammar); an empty spec selects that axis's default.
func (c *Config) usePolicies(router, scheduler, admit, priority string) (err error) {
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

// deviceState is one partition's scheduling state.
type deviceState struct {
	id    string
	dev   *device.Device
	queue *sched.ClassQueue
	// spec is the partition's device spec, snapshotted once at construction
	// (specs are immutable); kind is its index in Daemon.kinds.
	spec qir.DeviceSpec
	kind int
	// cache is the partition's calibration-warm program cache, nil when
	// Config.ProgramCache is zero.
	cache *progLRU
	// Pre-bound cache counter series (nil without a registry or cache).
	gCacheHits, gCacheMisses, gCacheEvictions *telemetry.BoundSeries

	// running is the job on the partition's device: a task the device
	// settles is ours when it is running's DeviceTask.
	running *Job
	// gQueue and gUtil are pre-bound per-device telemetry series (nil when
	// no registry is configured), so queue-depth emission does not rebuild
	// label keys per dispatch; tsQueue is gQueue's TSDB side (nil without a
	// TSDB).
	gQueue  [3]*telemetry.BoundSeries
	gUtil   *telemetry.BoundSeries
	tsQueue [3]*telemetry.TSDBSeries

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

	admitter admission.Policy
	// viewless marks an admitter that declares itself admission.Viewless:
	// its decisions are made without a view.
	viewless bool
	// admitView is the one load view every decision refills (admissionView).
	admitView admission.View
	// admitObserver is the admitter's Observer side, when it has one —
	// the stage-4 → stage-1 SLO feedback sink.
	admitObserver admission.Observer
	// admitDetails interns the reason-less admission span annotations
	// ("<policy> <outcome>") so traced accepts don't concatenate per job.
	admitDetails [len(internedOutcomes)]string

	// fleet and byDevice are immutable after NewDaemon: the partition pool
	// (validated through device.FleetOf) with scheduling state layered on.
	fleet    []*deviceState
	byDevice map[string]*deviceState
	// kinds are the fleet's distinct specs (DeviceSpec.Equal) in order of
	// first appearance: validate checks a program once against each.
	kinds []*qir.DeviceSpec

	// routeInfos and routeJob are the fleet snapshot and scratch job every
	// pick reuses.
	routeInfos []DeviceInfo
	routeJob   Job

	rng      *rand.Rand
	sessions map[string]*Session
	jobs     mint.Ring[Job] // the job table, indexed by each job's number
	nextSess int

	// accounting. Queue waits are kept as per-class running sums (the only
	// consumer is AdminStatus's mean), not per-job slices: a week-long
	// million-job replay must not grow daemon memory linearly in jobs.
	waitSum      map[sched.Class]time.Duration
	waitCount    map[sched.Class]int
	usageByUser  map[string]float64 // accumulated QPU seconds, fair-share key
	preemptTotal int
	// rejectedTotal counts every admission shed, and jobsBySource every
	// record minted, over the daemon's lifetime — whatever retention has
	// evicted since.
	rejectedTotal int
	jobsBySource  map[string]int
	// finished and rejected hold the terminal records still in the job
	// table, in finish order — the two finish rings (retention.go).
	finished, rejected mint.Ring[Job]

	// Registry series, bound once in NewDaemon and indexed by class where
	// there is one per class. All nil when no registry is configured
	// (BoundSeries methods are nil-safe), so no write renders a label key or
	// allocates. mAdmission is the one family kept: an outcome admitStage
	// has no handle for is bound from it on the spot.
	mAdmission  *telemetry.Metric
	bSessions   *telemetry.BoundSeries
	bWait       [3]*telemetry.BoundSeries
	bJobs       [3]map[JobState]*telemetry.BoundSeries
	bQueueTotal [3]*telemetry.BoundSeries
	bAdmit      [3]map[admission.Outcome]*telemetry.BoundSeries
	bAdmitRej   [3]*telemetry.BoundSeries
	// tsQueueTotal is bQueueTotal's TSDB side, nil without a TSDB.
	tsQueueTotal [3]*telemetry.TSDBSeries

	// spanMarks reports whether instant marks and occupancy spans are
	// emitted (false under Config.PipelineSpansOnly).
	spanMarks bool
	// span is the wired trace listener (Config.SpanListener teed with the
	// flight recorder); nil means tracing off and every emission site reduces
	// to one nil check.
	span   trace.Listener
	flight *trace.FlightRecorder
}

// NewDaemon wires the daemon to its device fleet.
func NewDaemon(cfg Config) (*Daemon, error) {
	devices := cfg.Devices
	if len(devices) == 0 || cfg.Clock == nil {
		return nil, errors.New("daemon: config requires at least one device and a clock")
	}
	if len(cfg.AllowedLowLevelOps) == 0 {
		cfg.AllowedLowLevelOps = []string{"recalibrate", "qa_check"}
	}
	if cfg.ProgramCache < 0 {
		return nil, fmt.Errorf("daemon: negative program cache capacity %d", cfg.ProgramCache)
	}
	if !(cfg.SetupSeconds >= 0) || math.IsInf(cfg.SetupSeconds, 1) {
		return nil, fmt.Errorf("daemon: setup seconds %g (want a finite duration ≥ 0)", cfg.SetupSeconds)
	}
	if cfg.SetupSeconds > 0 && cfg.ProgramCache == 0 {
		return nil, errors.New("daemon: SetupSeconds requires ProgramCache > 0 (without a cache every dispatch would pay setup)")
	}
	if cfg.History <= 0 {
		cfg.History = 16384
	}
	// A stage left nil runs its axis default.
	if err := cfg.usePolicies("", "", "", ""); err != nil {
		return nil, err
	}
	router, order, admitter, priority := cfg.Router, cfg.Order, cfg.Admission, cfg.Priority
	d := &Daemon{
		cfg:          cfg,
		router:       router,
		order:        order,
		priority:     priority,
		admitter:     admitter,
		byDevice:     make(map[string]*deviceState, len(devices)),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		sessions:     make(map[string]*Session),
		waitSum:      make(map[sched.Class]time.Duration),
		waitCount:    make(map[sched.Class]int),
		usageByUser:  make(map[string]float64),
		jobsBySource: make(map[string]int),
		admitView:    admission.View{ByClass: make(map[sched.Class]admission.ClassLoad, 3)},
	}
	d.ranker, d.tieOrder = composeRanker(order, priority)
	d.admitObserver, _ = admitter.(admission.Observer)
	_, d.viewless = admitter.(admission.Viewless)
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
			id:    dev.ID(),
			dev:   dev,
			queue: sched.NewClassQueue(),
			spec:  dev.Spec(),
			cache: newProgLRU(cfg.ProgramCache),
		}
		if ds.kind = slices.IndexFunc(d.kinds, ds.spec.Equal); ds.kind < 0 {
			ds.kind = len(d.kinds)
			d.kinds = append(d.kinds, &ds.spec)
		}
		d.fleet = append(d.fleet, ds)
		d.byDevice[ds.id] = ds
	}
	if len(d.kinds) > 64 { // a specSet's bits
		return nil, fmt.Errorf("daemon: %d distinct device specs in the fleet (at most 64)", len(d.kinds))
	}
	d.routeInfos = make([]DeviceInfo, len(d.fleet))
	if reg := cfg.Registry; reg != nil {
		mJobs := reg.MustCounter("daemon_jobs_total", "Daemon jobs by class and final state.")
		mQueueLen := reg.MustGauge("daemon_queue_length", "Queued daemon jobs by class.")
		d.bSessions = reg.MustGauge("daemon_sessions_active", "Open user sessions.").Bind(nil)
		mWait := reg.MustHistogram("daemon_job_wait_seconds", "Queue wait by class.",
			[]float64{1, 5, 15, 60, 300, 1800, 7200})
		mDevQueueLen := reg.MustGauge("daemon_device_queue_length", "Queued daemon jobs by device and class.")
		mDevUtil := reg.MustGauge("daemon_device_utilization", "Per-device QPU utilization fraction.")
		d.mAdmission = reg.MustCounter("daemon_admission_total", "Admission decisions by class and outcome.")
		mAdmissionRejected := reg.MustCounter("daemon_admission_rejected_total", "Submissions shed at admission by class and policy.")
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			name := c.String()
			d.bWait[c] = mWait.Bind(telemetry.Labels{"class": name})
			d.bQueueTotal[c] = mQueueLen.Bind(telemetry.Labels{"class": name})
			d.bJobs[c] = make(map[JobState]*telemetry.BoundSeries, 4)
			for _, st := range []JobState{JobCompleted, JobFailed, JobCancelled, JobRejected} {
				d.bJobs[c][st] = mJobs.Bind(telemetry.Labels{"class": name, "state": string(st)})
			}
			d.bAdmit[c] = make(map[admission.Outcome]*telemetry.BoundSeries, 3)
			for _, out := range []admission.Outcome{admission.Accepted, admission.Downgraded, admission.Rejected} {
				d.bAdmit[c][out] = d.mAdmission.Bind(telemetry.Labels{"class": name, "outcome": string(out)})
			}
			d.bAdmitRej[c] = mAdmissionRejected.Bind(telemetry.Labels{"class": name, "policy": admitter.Name()})
		}
		for _, ds := range d.fleet {
			for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
				ds.gQueue[c] = mDevQueueLen.Bind(telemetry.Labels{"device": ds.id, "class": c.String()})
			}
			ds.gUtil = mDevUtil.Bind(telemetry.Labels{"device": ds.id})
		}
		// Cache counters exist only when caching is on, so a cache-less
		// daemon's metrics output is unchanged.
		if cfg.ProgramCache > 0 {
			mHits := reg.MustCounter("daemon_program_cache_hits_total", "Program-cache hits at dispatch, by device.")
			mMisses := reg.MustCounter("daemon_program_cache_misses_total", "Program-cache misses at dispatch, by device.")
			mEvictions := reg.MustCounter("daemon_program_cache_evictions_total", "Program-cache LRU evictions, by device.")
			for _, ds := range d.fleet {
				ds.gCacheHits = mHits.Bind(telemetry.Labels{"device": ds.id})
				ds.gCacheMisses = mMisses.Bind(telemetry.Labels{"device": ds.id})
				ds.gCacheEvictions = mEvictions.Bind(telemetry.Labels{"device": ds.id})
			}
		}
	}
	for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
		d.tsQueueTotal[c] = cfg.TSDB.Bind("daemon_queue_length", telemetry.Labels{"class": c.String()})
		for _, ds := range d.fleet {
			ds.tsQueue[c] = cfg.TSDB.Bind("daemon_device_queue_length", telemetry.Labels{"device": ds.id, "class": c.String()})
		}
	}
	for _, ds := range d.fleet {
		ds.dev.SetTaskListener(func(_, taskID string, state device.TaskState) { d.onDeviceTask(ds, taskID, state) })
	}
	return d, nil
}

// Devices lists the managed fleet in routing order.
func (d *Daemon) Devices() []*device.Device {
	out := make([]*device.Device, len(d.fleet))
	for i, ds := range d.fleet {
		out[i] = ds.dev
	}
	return out
}

// --- sessions ---

// OpenSession creates a session for a user and returns its token.
func (d *Daemon) OpenSession(user string) (*Session, error) {
	if user == "" {
		return nil, errors.New("daemon: session requires a user name")
	}
	d.nextSess++
	s := &Session{
		Token:     fmt.Sprintf("sess-%d-%08x", d.nextSess, d.rng.Uint32()),
		User:      user,
		CreatedAt: d.cfg.Clock.Now(),
	}
	d.sessions[s.Token] = s
	d.bSessions.Set(float64(len(d.sessions)))
	return s, nil
}

// CloseSession ends a session; its queued jobs are cancelled, running jobs
// are left to finish (accounting continuity for the hosting site).
func (d *Daemon) CloseSession(token string) error {
	s, ok := d.sessions[token]
	if !ok {
		return fmt.Errorf("daemon: unknown session")
	}
	delete(d.sessions, token)
	var toCancel []string
	for _, id := range s.Jobs {
		if j := d.job(id); j != nil && j.State == JobQueued {
			toCancel = append(toCancel, id)
		}
	}
	d.bSessions.Set(float64(len(d.sessions)))
	for _, id := range toCancel {
		_ = d.CancelJob(token, id, true)
	}
	return nil
}

// session validates a token.
func (d *Daemon) session(token string) (*Session, error) {
	s, ok := d.sessions[token]
	if !ok {
		return nil, errors.New("daemon: invalid session token")
	}
	return s, nil
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
