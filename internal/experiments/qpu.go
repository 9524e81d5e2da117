package experiments

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// The scheduling experiments (E1, A2, A5, A8, A9) run on the daemon the repo
// serves: one timing-only QPU behind a daemon.Daemon built from policy specs,
// driven by clients that submit figure2Program jobs the way a hybrid program
// does against QRMI — submit a quantum segment, wait for it to finish, compute
// classically for a while, submit the next.

// Policy selects how hybrid jobs are mapped onto the daemon.
type Policy int

const (
	// PolicyExclusiveFIFO is the hint-blind baseline: each hybrid job is one
	// task holding the QPU for its whole lifetime, classical phases
	// included, and every job is submitted at one class in arrival order —
	// what "submit the whole hybrid job to the QPU queue" degenerates to
	// without a second scheduling level.
	PolicyExclusiveFIFO Policy = iota
	// PolicyPriorityExclusive submits the same lifetime-long task at the
	// job's true class, with production preemption on.
	PolicyPriorityExclusive
	// PolicyInterleave is the paper's hint-aware policy: one task per
	// quantum segment at the job's true class, classical segments off the
	// QPU, production preemption on — other jobs' segments fill the gaps.
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

// config maps the policy onto the daemon at a shot rate.
func (p Policy) config(rateHz float64, seed int64) qpuConfig {
	return qpuConfig{
		rateHz:  rateHz,
		seed:    seed,
		preempt: p != PolicyExclusiveFIFO,
		whole:   p != PolicyInterleave,
		blind:   p == PolicyExclusiveFIFO,
	}
}

// segment is one phase of a hybrid job.
type segment struct {
	quantum bool
	dur     time.Duration
}

// qpuJob is one client's hybrid job — segments run strictly in order — and
// the times a run measured for it.
type qpuJob struct {
	user  string // session user; "client" when empty
	class sched.Class
	at    time.Duration // arrival
	segs  []segment

	next    int  // index of the next segment
	started bool // a segment has started
	done    bool
	// submit is the arrival, start the first segment's start (classical or
	// quantum), last the latest QPU start (a preempted task restarts), end
	// the last segment's end.
	submit, start, last, end time.Duration
}

func (j *qpuJob) begin(at time.Duration) {
	if !j.started {
		j.started, j.start = true, at
	}
}

// qpuConfig is the daemon a run is served by and how jobs are submitted to it.
type qpuConfig struct {
	rateHz    float64 // shot rate; 0 keeps the default spec's 1 Hz
	scheduler string  // within-class order spec; empty is FIFO
	preempt   bool
	whole     bool // one task per job, spanning its whole lifetime
	blind     bool // every job at sched.ClassTest: the daemon sees no hint
	seed      int64
}

// qpuRun is one run of jobs to completion.
type qpuRun struct {
	cfg    qpuConfig
	clk    *simclock.Clock
	spec   qir.DeviceSpec
	d      *daemon.Daemon
	tokens map[string]string
	owner  map[string]*qpuJob // daemon job ID → the job it is a segment of
	// submitting is the job whose segment is inside Daemon.Submit: the
	// submitted event names its daemon job ID before Submit returns.
	submitting *qpuJob
	open       int
	err        error

	// busy is the shot time submitted for quantum segments, held the QPU
	// time tasks took from start to preemption or finish.
	busy, held, makespan time.Duration
	preempts             int
}

// runHook, when set, is called once per runQPU with the run's configuration,
// which it may amend, for a listener that also receives the run's job events
// — how the tests take a schedule log of every run behind the scheduling
// tables, and swap a mutant order in under them.
var runHook func(*qpuConfig) func(daemon.JobEvent)

// runQPU runs jobs on a fresh daemon until every one has ended, and returns
// the first submit error, daemon rejection or failed task instead.
func runQPU(cfg qpuConfig, jobs []*qpuJob) (*qpuRun, error) {
	clk := simclock.New()
	spec := qir.DefaultAnalogSpec()
	if cfg.rateHz > 0 {
		spec.ShotRateHz = cfg.rateHz
	}
	// A lifetime-long task at 10 Hz and up runs past the one-submission
	// shot limit (2 × (60 + 60) s × 10 Hz = 2 400 shots).
	spec.MaxShotsPerTask = math.MaxInt32
	r := &qpuRun{cfg: cfg, clk: clk, spec: spec, tokens: map[string]string{}, owner: map[string]*qpuJob{}, open: len(jobs)}
	listener := r.observe
	if runHook != nil {
		extra := runHook(&r.cfg)
		listener = func(e daemon.JobEvent) { r.observe(e); extra(e) }
	}
	var err error
	r.d, err = daemon.NewNode(daemon.NodeSpec{
		Partitions: 1,
		Device:     device.Config{Spec: spec, DriftInterval: time.Hour, TimingOnly: true},
		Daemon: daemon.Config{Clock: clk, AdminToken: "admin",
			EnablePreemption: cfg.preempt, Seed: cfg.seed, JobListener: listener},
		Scheduler: r.cfg.scheduler,
	})
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		j.user = cmp.Or(j.user, "client")
		if _, ok := r.tokens[j.user]; !ok {
			sess, err := r.d.OpenSession(j.user)
			if err != nil {
				return nil, err
			}
			r.tokens[j.user] = sess.Token
		}
		for _, s := range j.segs {
			if s.quantum {
				r.busy += r.taskTime(s.dur)
			}
		}
		clk.Schedule(j.at, "arrival", func() {
			j.submit = clk.Now()
			r.advance(j)
		})
	}
	// Device drift re-arms forever, so the clock never drains: run until
	// every job has ended.
	for r.open > 0 && r.err == nil && clk.Step() {
	}
	if r.err == nil && r.open > 0 {
		r.err = fmt.Errorf("experiments: %d jobs never ended", r.open)
	}
	return r, r.err
}

// shots is the whole number of shots closest to d at the run's shot rate.
func (r *qpuRun) shots(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()*r.spec.ShotRateHz)))
}

// taskTime is how long a task of d's shots holds the QPU.
func (r *qpuRun) taskTime(d time.Duration) time.Duration {
	return simclock.Seconds(float64(r.shots(d)) / r.spec.ShotRateHz)
}

// advance runs j's next segment: a classical one elapses on the clock, a
// quantum one (or, whole, the rest of the lifetime) is submitted, and past
// the last one the job ends.
func (r *qpuRun) advance(j *qpuJob) {
	now := r.clk.Now()
	if j.next == len(j.segs) {
		j.done, j.end = true, now
		r.makespan = max(r.makespan, now)
		r.open--
		return
	}
	seg := j.segs[j.next]
	j.next++
	if r.cfg.whole {
		for _, s := range j.segs[j.next:] {
			seg.dur += s.dur
		}
		seg.quantum, j.next = true, len(j.segs)
	}
	if !seg.quantum {
		j.begin(now)
		r.clk.Schedule(seg.dur, "classical", func() { r.advance(j) })
		return
	}
	raw, err := figure2Program(r.shots(seg.dur)).MarshalJSON()
	if err != nil {
		r.fail(err)
		return
	}
	class := j.class
	if r.cfg.blind {
		class = sched.ClassTest
	}
	r.submitting = j
	_, err = r.d.Submit(r.tokens[j.user], daemon.SubmitRequest{Program: raw, Class: class})
	r.submitting = nil
	if err != nil {
		r.fail(err)
	}
}

// observe is the daemon's JobListener. It must not call back into the
// daemon, so a finished segment's successor starts from the clock.
func (r *qpuRun) observe(e daemon.JobEvent) {
	j := r.owner[e.Job.ID]
	switch e.Type {
	case daemon.JobEventSubmitted:
		r.owner[e.Job.ID] = r.submitting
	case daemon.JobEventStarted:
		j.begin(e.At)
		j.last = e.At
	case daemon.JobEventPreempted:
		r.held += e.At - j.last
		r.preempts++
	case daemon.JobEventFinished:
		r.held += e.At - j.last
		if e.Job.State != daemon.JobCompleted {
			r.fail(fmt.Errorf("experiments: job %s ended %s: %s", e.Job.ID, e.Job.State, e.Job.Error))
			return
		}
		r.clk.Schedule(0, "segment-done", func() { r.advance(j) })
	case daemon.JobEventRejected:
		r.fail(fmt.Errorf("experiments: job %s rejected: %s", e.Job.ID, e.Job.AdmissionReason))
	}
}

func (r *qpuRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// utilization is busy QPU time over the makespan.
func (r *qpuRun) utilization() float64 {
	if r.makespan <= 0 {
		return 0
	}
	return float64(r.busy) / float64(r.makespan)
}
