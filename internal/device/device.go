// Package device models a production analog neutral-atom QPU as the
// middleware sees it: a queued, calibrated, slowly drifting, shot-rate-
// limited execution resource with maintenance windows and QA checks.
//
// The paper integrates a real Pasqal QPU; offline we substitute this model.
// The substitution is faithful where it matters for the middleware: task
// timing follows the ~1 Hz shot clock on the simulation clock, results come
// from the same emulator substrate users develop against but distorted by
// the device's current calibration state, and every state change is emitted
// to the telemetry stack exactly as the paper's observability section
// requires.
//
// A device has no lock of its own: it lives inside the simulated world of
// its clock (see simclock), so every method assumes the caller is inside it.
package device

import (
	"errors"
	"math/rand"
	"time"

	"hpcqc/internal/mint"
	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// Status enumerates device availability states.
type Status string

const (
	// StatusOnline means the device accepts and executes tasks.
	StatusOnline Status = "online"
	// StatusMaintenance means an admin took the device offline.
	StatusMaintenance Status = "maintenance"
	// StatusDegraded means QA checks found calibration out of bounds; the
	// device still runs but results carry a degradation flag.
	StatusDegraded Status = "degraded"
)

// qaInterval is how often the internal QA check runs.
const qaInterval = time.Hour

// TaskState tracks a submitted task through its lifecycle.
type TaskState string

const (
	// TaskQueued is awaiting execution.
	TaskQueued TaskState = "queued"
	// TaskRunning is on the QPU now.
	TaskRunning TaskState = "running"
	// TaskCompleted finished and has a result.
	TaskCompleted TaskState = "completed"
	// TaskCancelled was cancelled before completion.
	TaskCancelled TaskState = "cancelled"
	// TaskFailed hit a validation or execution error.
	TaskFailed TaskState = "failed"
)

// Calibration is the drifting physical state of the device. The runtime
// fetches it at each workflow stage (paper Figure 1) and jobs record a
// snapshot in their result metadata (paper §3.6, per-job metadata).
type Calibration struct {
	// RabiFactor multiplies requested drive amplitudes; 1.0 is perfect.
	RabiFactor float64 `json:"rabi_factor"`
	// DetuningOffset is an additive detuning error in rad/µs.
	DetuningOffset float64 `json:"detuning_offset"`
	// AtomLossProb is the per-atom preparation loss probability.
	AtomLossProb float64 `json:"atom_loss_prob"`
	// LastCalibrated is the simulation time of the last recalibration.
	LastCalibrated time.Duration `json:"last_calibrated"`
}

// Config parameterizes the device model.
type Config struct {
	// ID names this device within a fleet of partitions. Defaults to the
	// spec name, which keeps single-device deployments unchanged; NewFleet
	// assigns per-partition IDs so a daemon can route by device.
	ID string
	// Spec describes the hardware envelope; defaults to DefaultAnalogSpec.
	Spec qir.DeviceSpec
	// Clock drives all timing. Required.
	Clock *simclock.Clock
	// Seed makes drift and sampling deterministic.
	Seed int64
	// DriftInterval is how often calibration random-walks (default 60s).
	DriftInterval time.Duration
	// DriftSigma is the per-step relative drift magnitude (default 0.002).
	DriftSigma float64
	// TimingOnly skips the emulator substrate entirely: tasks still occupy
	// the QPU for their estimated shot time on the simulation clock, drift
	// and QA still run, but results carry no measured counts. Replay and
	// sweep analytics never read counts — only timing — so this removes the
	// dominant CPU/allocation cost from the scheduling hot path without
	// changing a single report byte. The RNG draw per task is preserved so
	// timing-only and full-emulation runs stay stream-compatible.
	TimingOnly bool
	// Registry and TSDB receive telemetry when non-nil.
	Registry *telemetry.Registry
	TSDB     *telemetry.TSDB
}

// Device is the simulated QPU.
type Device struct {
	cfg  Config
	id   string
	spec qir.DeviceSpec

	rng     *rand.Rand
	calib   Calibration
	status  Status
	queue   []*task // FIFO of queued tasks
	running *task
	tasks   mint.Ring[task] // the task table, indexed by each task's number
	// free holds forgotten task records for reuse (see Forget).
	free []*task

	// Utilization accounting, all in simulation seconds.
	busySince    time.Duration
	totalBusy    time.Duration
	createdAt    time.Duration
	shotsTotal   int64
	tasksTotal   int64
	tasksFailed  int64
	maintWindows int

	// listener is notified on task terminal transitions (see SetTaskListener).
	listener func(deviceID, taskID string, state TaskState)

	// drift and qa are the clock slots the periodic processes re-arm.
	drift, qa simclock.Event
	// timingMeta is the read-only Metadata timing-only results share.
	timingMeta [2]map[string]string // online, degraded

	// Telemetry handles, bound once in New; each is nil, and drops its
	// updates, without the store it writes to. The four gauges carry
	// {device=<id>} in the registry and in the TSDB alike; the two counters
	// are fleet-wide aggregates.
	gQueueLen, gRabi, gDetOff, gStatus     *telemetry.BoundSeries
	tsQueueLen, tsRabi, tsDetOff, tsStatus *telemetry.TSDBSeries
	cShots                                 *telemetry.BoundSeries
	// qpu_tasks_total{state} binds on first use (in finish): binding
	// creates the series, and a state no task has reached stays off the scrape.
	mTasks *telemetry.Metric
	cTasks map[TaskState]*telemetry.BoundSeries
}

// SetTaskListener installs a callback invoked whenever a task reaches a
// terminal state (completed, failed, cancelled). The callback receives the
// device ID so one listener can route completions across a fleet of
// partitions. The middleware daemon uses it to drive its second-level
// dispatch without polling.
func (d *Device) SetTaskListener(fn func(deviceID, taskID string, state TaskState)) {
	d.listener = fn
}

// New constructs a device and starts its drift and QA processes on the
// clock.
func New(cfg Config) (*Device, error) {
	if cfg.Clock == nil {
		return nil, errors.New("device: config requires a clock")
	}
	if cfg.Spec.Name == "" {
		cfg.Spec = qir.DefaultAnalogSpec()
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.DriftInterval <= 0 {
		cfg.DriftInterval = time.Minute
	}
	if cfg.DriftSigma <= 0 {
		cfg.DriftSigma = 0.002
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Spec.Name
	}
	d := &Device{
		cfg:       cfg,
		id:        cfg.ID,
		spec:      cfg.Spec,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		status:    StatusOnline,
		createdAt: cfg.Clock.Now(),
		calib: Calibration{
			RabiFactor:     1.0,
			DetuningOffset: 0,
			AtomLossProb:   0.005,
			LastCalibrated: cfg.Clock.Now(),
		},
		timingMeta: [2]map[string]string{
			{"backend": cfg.Spec.Name, "method": "timing-only"},
			{"backend": cfg.Spec.Name, "method": "timing-only", "degraded": "true"},
		},
	}
	labels := telemetry.Labels{"device": d.id}
	if reg := cfg.Registry; reg != nil {
		d.gQueueLen = reg.MustGauge("qpu_queue_length", "Tasks waiting on the device queue.").Bind(labels)
		d.gRabi = reg.MustGauge("qpu_calib_rabi_factor", "Calibration Rabi factor (1.0 = nominal).").Bind(labels)
		d.gDetOff = reg.MustGauge("qpu_calib_detuning_offset", "Calibration detuning offset (rad/us).").Bind(labels)
		d.gStatus = reg.MustGauge("qpu_up", "1 when online, 0.5 degraded, 0 in maintenance.").Bind(labels)
		d.mTasks = reg.MustCounter("qpu_tasks_total", "Tasks executed by final state.")
		d.cTasks = make(map[TaskState]*telemetry.BoundSeries, 2)
		d.cShots = reg.MustCounter("qpu_shots_total", "Shots executed.").Bind(nil)
	}
	d.tsQueueLen = cfg.TSDB.Bind("qpu_queue_length", labels)
	d.tsRabi = cfg.TSDB.Bind("qpu_calib_rabi_factor", labels)
	d.tsDetOff = cfg.TSDB.Bind("qpu_calib_detuning_offset", labels)
	d.tsStatus = cfg.TSDB.Bind("qpu_up", labels)
	d.emitTelemetry()
	d.drift = simclock.Event{Name: "qpu-drift", Fn: d.driftTick}
	d.qa = simclock.Event{Name: "qpu-qa", Fn: d.qaTick}
	cfg.Clock.Arm(&d.drift, cfg.DriftInterval)
	cfg.Clock.Arm(&d.qa, qaInterval)
	return d, nil
}

// ID returns the device's fleet-unique identifier (the spec name unless the
// configuration named the partition explicitly).
func (d *Device) ID() string { return d.id }

// Spec returns the static hardware envelope.
func (d *Device) Spec() qir.DeviceSpec { return d.spec }

// CalibrationSnapshot returns the current calibration.
func (d *Device) CalibrationSnapshot() Calibration {
	return d.calib
}

// Status returns the availability state.
func (d *Device) Status() Status {
	return d.status
}

// QueueLength returns the number of queued (not running) tasks.
func (d *Device) QueueLength() int {
	return len(d.queue)
}

// Utilization returns the fraction of elapsed simulation time the QPU spent
// executing shots since creation.
func (d *Device) Utilization() float64 {
	elapsed := d.cfg.Clock.Now() - d.createdAt
	if elapsed <= 0 {
		return 0
	}
	busy := d.totalBusy
	if d.running != nil {
		busy += d.cfg.Clock.Now() - d.busySince
	}
	return float64(busy) / float64(elapsed)
}
