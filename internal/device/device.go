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
package device

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"hpcqc/internal/emulator"
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
	// QAInterval is how often the internal QA check runs (default 1h).
	QAInterval time.Duration
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

// task is an internal execution record.
type task struct {
	id       string
	program  *qir.Program
	state    TaskState
	result   *qir.Result
	err      error
	queuedAt time.Duration
	startAt  time.Duration
	endAt    time.Duration
	event    *simclock.Event
	// setup is extra cold-start occupancy charged before the shots — the
	// daemon's program-cache miss cost. Zero for warm (or cache-less)
	// submissions, leaving timing untouched.
	setup time.Duration
}

// Device is the simulated QPU.
type Device struct {
	cfg  Config
	id   string
	spec qir.DeviceSpec

	mu      sync.Mutex
	rng     *rand.Rand
	calib   Calibration
	status  Status
	queue   []*task // FIFO of queued tasks
	running *task
	tasks   map[string]*task
	nextID  int

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

	// telemetry handles (nil-safe)
	mQueueLen, mRabi, mDetOff, mStatus *telemetry.Metric
	mTasks, mShots                     *telemetry.Metric
	// The same four gauges as TSDB series, bound once (nil without a TSDB).
	tsQueueLen, tsRabi, tsDetOff, tsStatus *telemetry.TSDBSeries
}

// SetTaskListener installs a callback invoked whenever a task reaches a
// terminal state (completed, failed, cancelled). The callback receives the
// device ID so one listener can route completions across a fleet of
// partitions. The middleware daemon uses it to drive its second-level
// dispatch without polling.
func (d *Device) SetTaskListener(fn func(deviceID, taskID string, state TaskState)) {
	d.mu.Lock()
	d.listener = fn
	d.mu.Unlock()
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
	if cfg.QAInterval <= 0 {
		cfg.QAInterval = time.Hour
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
		tasks:     make(map[string]*task),
		createdAt: cfg.Clock.Now(),
		calib: Calibration{
			RabiFactor:     1.0,
			DetuningOffset: 0,
			AtomLossProb:   0.005,
			LastCalibrated: cfg.Clock.Now(),
		},
	}
	if cfg.Registry != nil {
		d.mQueueLen = cfg.Registry.MustGauge("qpu_queue_length", "Tasks waiting on the device queue.")
		d.mRabi = cfg.Registry.MustGauge("qpu_calib_rabi_factor", "Calibration Rabi factor (1.0 = nominal).")
		d.mDetOff = cfg.Registry.MustGauge("qpu_calib_detuning_offset", "Calibration detuning offset (rad/us).")
		d.mStatus = cfg.Registry.MustGauge("qpu_up", "1 when online, 0.5 degraded, 0 in maintenance.")
		d.mTasks = cfg.Registry.MustCounter("qpu_tasks_total", "Tasks executed by final state.")
		d.mShots = cfg.Registry.MustCounter("qpu_shots_total", "Shots executed.")
	}
	labels := telemetry.Labels{"device": d.id}
	d.tsQueueLen = cfg.TSDB.Bind("qpu_queue_length", labels)
	d.tsRabi = cfg.TSDB.Bind("qpu_calib_rabi_factor", labels)
	d.tsDetOff = cfg.TSDB.Bind("qpu_calib_detuning_offset", labels)
	d.tsStatus = cfg.TSDB.Bind("qpu_up", labels)
	d.emitTelemetry()
	d.scheduleDrift()
	d.scheduleQA()
	return d, nil
}

// ID returns the device's fleet-unique identifier (the spec name unless the
// configuration named the partition explicitly).
func (d *Device) ID() string { return d.id }

// Spec returns the static hardware envelope.
func (d *Device) Spec() qir.DeviceSpec { return d.spec }

// CalibrationSnapshot returns the current calibration.
func (d *Device) CalibrationSnapshot() Calibration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calib
}

// Status returns the availability state.
func (d *Device) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status
}

// QueueLength returns the number of queued (not running) tasks.
func (d *Device) QueueLength() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue)
}

// Utilization returns the fraction of elapsed simulation time the QPU spent
// executing shots since creation.
func (d *Device) Utilization() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
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

// Submit validates and enqueues a program, returning a task ID. Execution
// happens on the simulation clock at the device shot rate. Validation runs
// through the qir verdict memo: the daemon dispatches the same decoded
// program against the same spec thousands of times per replay, and the memo
// collapses the repeated full-waveform walks to one. Submitted programs must
// therefore not be mutated afterwards.
func (d *Device) Submit(p *qir.Program) (string, error) {
	return d.SubmitWithSetup(p, 0)
}

// SubmitWithSetup is Submit with an explicit cold-setup charge: the task
// occupies the QPU for setupSeconds before its shots begin. The daemon's
// program-cache layer uses it to make cache misses pay calibration/compile
// setup while warm hits skip it; zero setup is exactly Submit.
func (d *Device) SubmitWithSetup(p *qir.Program, setupSeconds float64) (string, error) {
	if setupSeconds < 0 {
		return "", fmt.Errorf("device: negative setup seconds %g", setupSeconds)
	}
	if err := qir.ValidateCached(p, &d.spec); err != nil {
		return "", err
	}
	d.mu.Lock()
	if d.status == StatusMaintenance {
		d.mu.Unlock()
		return "", errors.New("device: in maintenance, not accepting tasks")
	}
	d.nextID++
	t := &task{
		id:       "qpu-task-" + strconv.Itoa(d.nextID),
		program:  p,
		state:    TaskQueued,
		queuedAt: d.cfg.Clock.Now(),
		setup:    simclock.Seconds(setupSeconds),
	}
	d.tasks[t.id] = t
	d.queue = append(d.queue, t)
	d.mu.Unlock()
	d.pump()
	d.emitTelemetry()
	return t.id, nil
}

// pump starts the next queued task if the device is idle.
func (d *Device) pump() {
	d.mu.Lock()
	if d.running != nil || len(d.queue) == 0 || d.status == StatusMaintenance {
		d.mu.Unlock()
		return
	}
	t := d.queue[0]
	d.queue = d.queue[1:]
	t.state = TaskRunning
	t.startAt = d.cfg.Clock.Now()
	d.running = t
	d.busySince = t.startAt
	dur := simclock.Seconds(t.program.EstimatedQPUSeconds(&d.spec))
	if dur <= 0 {
		dur = time.Second
	}
	// Cold-setup occupancy precedes the shots; zero for warm submissions, so
	// setup-free tasks keep their exact historical timing.
	dur += t.setup
	t.event = d.cfg.Clock.Schedule(dur, "qpu-exec", func() { d.finish(t) })
	d.mu.Unlock()
}

// finish computes the task result and starts the next task.
func (d *Device) finish(t *task) {
	d.mu.Lock()
	if t.state != TaskRunning {
		d.mu.Unlock()
		return
	}
	calib := d.calib
	seed := d.rng.Int63()
	d.mu.Unlock()

	res, err := d.execute(t.program, calib, seed)

	d.mu.Lock()
	t.endAt = d.cfg.Clock.Now()
	d.totalBusy += t.endAt - t.startAt
	if err != nil {
		t.state = TaskFailed
		t.err = err
		d.tasksFailed++
	} else {
		t.state = TaskCompleted
		t.result = res
		d.shotsTotal += int64(t.program.Shots)
		if d.mShots != nil {
			d.mShots.Inc(nil, float64(t.program.Shots))
		}
	}
	d.tasksTotal++
	if d.mTasks != nil {
		d.mTasks.Inc(telemetry.Labels{"state": string(t.state)}, 1)
	}
	d.running = nil
	listener := d.listener
	state := t.state
	d.mu.Unlock()
	if listener != nil {
		listener(d.id, t.id, state)
	}
	d.pump()
	d.emitTelemetry()
}

// execute runs the program through the emulator substrate with the current
// calibration distortions applied — the "hardware truth" of the model.
func (d *Device) execute(p *qir.Program, calib Calibration, seed int64) (*qir.Result, error) {
	if p.Kind == qir.KindDigital && !d.spec.Digital {
		return nil, fmt.Errorf("device: %s is analog-only", d.spec.Name)
	}
	if d.cfg.TimingOnly {
		// Timing-only results carry no measured counts and no calibration
		// snapshot (nothing was executed against the calibration state), so
		// none of the per-task float formatting is paid either. QPUSeconds —
		// the only field scheduling analytics consume — is still set.
		res := &qir.Result{
			Counts:   qir.Counts{},
			Metadata: map[string]string{"backend": d.spec.Name, "method": "timing-only"},
		}
		if d.Status() == StatusDegraded {
			res.Metadata["degraded"] = "true"
		}
		res.QPUSeconds = p.EstimatedQPUSeconds(&d.spec)
		return res, nil
	}
	distorted := p
	if p.Kind == qir.KindAnalog && (calib.RabiFactor != 1 || calib.DetuningOffset != 0) {
		distorted = distortProgram(p, calib)
	}
	noise := emulator.NoiseModel{
		EpsPrep:     calib.AtomLossProb,
		EpsFalsePos: 0.01,
		EpsFalseNeg: 0.02,
	}
	// Pick the emulation substrate for the "hardware truth": exact for
	// small programs, tensor network above the state-vector limit.
	var backend emulator.Backend
	if p.NumQubits() <= 12 {
		backend = emulator.NewSVBackend(emulator.SVConfig{DTNs: 1, Noise: noise})
	} else {
		backend = emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: 8, MaxQubits: d.spec.MaxQubits, Noise: noise})
	}
	res, err := backend.Run(distorted, seed)
	if err != nil {
		return nil, err
	}
	d.annotateResult(res, p, calib, "hardware")
	return res, nil
}

// annotateResult overwrites emulator identity with device identity plus the
// per-job calibration metadata users need to interpret noisy results.
func (d *Device) annotateResult(res *qir.Result, p *qir.Program, calib Calibration, method string) {
	res.Metadata["backend"] = d.spec.Name
	res.Metadata["method"] = method
	res.Metadata["calib_rabi_factor"] = strconv.FormatFloat(calib.RabiFactor, 'g', 6, 64)
	res.Metadata["calib_detuning_offset"] = strconv.FormatFloat(calib.DetuningOffset, 'g', 6, 64)
	res.Metadata["calib_age_seconds"] = strconv.FormatFloat((d.cfg.Clock.Now() - calib.LastCalibrated).Seconds(), 'g', 6, 64)
	if d.Status() == StatusDegraded {
		res.Metadata["degraded"] = "true"
	}
	res.QPUSeconds = p.EstimatedQPUSeconds(&d.spec)
}

// distortProgram applies calibration error to every global pulse.
func distortProgram(p *qir.Program, calib Calibration) *qir.Program {
	seq := qir.NewAnalogSequence(p.Analog.Register)
	for k, v := range p.Analog.Metadata {
		seq.Metadata[k] = v
	}
	for ch, pulses := range p.Analog.Channels {
		for _, pulse := range pulses {
			seq.Add(ch, qir.Pulse{
				Amplitude: scaledWaveform{pulse.Amplitude, calib.RabiFactor, 0},
				Detuning:  scaledWaveform{pulse.Detuning, 1, calib.DetuningOffset},
				Phase:     pulse.Phase,
				Targets:   pulse.Targets,
			})
		}
	}
	out := qir.NewAnalogProgram(seq, p.Shots)
	out.Metadata = p.Metadata
	return out
}

// scaledWaveform wraps a waveform with a multiplicative and additive
// calibration distortion. It never leaves the device, so it does not need to
// serialize.
type scaledWaveform struct {
	inner  qir.Waveform
	factor float64
	offset float64
}

func (w scaledWaveform) Duration() float64 { return w.inner.Duration() }
func (w scaledWaveform) Value(t float64) float64 {
	return w.inner.Value(t)*w.factor + w.offset
}
func (w scaledWaveform) Kind() string { return "scaled" }

// TaskStatus returns the lifecycle state of a task.
func (d *Device) TaskStatus(id string) (TaskState, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return "", fmt.Errorf("device: unknown task %q", id)
	}
	return t.state, nil
}

// TaskResult returns the result of a completed task.
func (d *Device) TaskResult(id string) (*qir.Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return nil, fmt.Errorf("device: unknown task %q", id)
	}
	switch t.state {
	case TaskCompleted:
		return t.result, nil
	case TaskFailed:
		return nil, t.err
	default:
		return nil, fmt.Errorf("device: task %s is %s", id, t.state)
	}
}

// Forget drops the device's record of a terminal task — its program, result
// and fired clock event — once the caller has read what it needs; the ID then
// reads as an unknown task. A queued or running task is left alone, and an
// unknown ID is a no-op. The device never forgets by itself: whoever consumes
// a task's outcome owns its record (the daemon forgets as it settles).
func (d *Device) Forget(id string) {
	d.mu.Lock()
	if t, ok := d.tasks[id]; ok && t.state != TaskQueued && t.state != TaskRunning {
		delete(d.tasks, id)
	}
	d.mu.Unlock()
}

// Cancel aborts a queued or running task.
func (d *Device) Cancel(id string) error {
	d.mu.Lock()
	t, ok := d.tasks[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("device: unknown task %q", id)
	}
	listener := d.listener
	switch t.state {
	case TaskQueued:
		for i, q := range d.queue {
			if q == t {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
		t.state = TaskCancelled
		d.mu.Unlock()
		if listener != nil {
			listener(d.id, t.id, TaskCancelled)
		}
	case TaskRunning:
		d.cfg.Clock.Cancel(t.event)
		t.state = TaskCancelled
		t.endAt = d.cfg.Clock.Now()
		d.totalBusy += t.endAt - t.startAt
		d.running = nil
		d.mu.Unlock()
		if listener != nil {
			listener(d.id, t.id, TaskCancelled)
		}
		d.pump()
	default:
		d.mu.Unlock()
		return fmt.Errorf("device: task %s already %s", id, t.state)
	}
	d.emitTelemetry()
	return nil
}

// WaitTime returns how long a task waited in queue before starting; zero for
// tasks that have not started.
func (d *Device) WaitTime(id string) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return 0, fmt.Errorf("device: unknown task %q", id)
	}
	if t.state == TaskQueued {
		return 0, nil
	}
	return t.startAt - t.queuedAt, nil
}

// StartMaintenance takes the device offline. Running tasks finish; queued
// tasks stay queued until maintenance ends.
func (d *Device) StartMaintenance() {
	d.mu.Lock()
	d.status = StatusMaintenance
	d.maintWindows++
	d.mu.Unlock()
	d.emitTelemetry()
}

// EndMaintenance returns the device to service and recalibrates.
func (d *Device) EndMaintenance() {
	d.Recalibrate()
	d.mu.Lock()
	d.status = StatusOnline
	d.mu.Unlock()
	d.pump()
	d.emitTelemetry()
}

// InjectCalibrationError applies a deliberate calibration offset — the
// fault-injection hook used by the drift-detection experiments and by QA
// tooling to verify the observability stack reacts to real degradation.
func (d *Device) InjectCalibrationError(rabiDelta, detuningDelta float64) {
	d.mu.Lock()
	d.calib.RabiFactor += rabiDelta
	d.calib.DetuningOffset += detuningDelta
	d.mu.Unlock()
	d.emitTelemetry()
}

// Recalibrate resets calibration to nominal, as a maintenance action would.
func (d *Device) Recalibrate() {
	d.mu.Lock()
	d.calib.RabiFactor = 1.0
	d.calib.DetuningOffset = 0
	d.calib.LastCalibrated = d.cfg.Clock.Now()
	if d.status == StatusDegraded {
		d.status = StatusOnline
	}
	d.mu.Unlock()
	d.emitTelemetry()
}

// scheduleDrift random-walks calibration on every DriftInterval tick.
func (d *Device) scheduleDrift() {
	d.cfg.Clock.Schedule(d.cfg.DriftInterval, "qpu-drift", func() {
		d.mu.Lock()
		d.calib.RabiFactor += d.rng.NormFloat64() * d.cfg.DriftSigma
		d.calib.DetuningOffset += d.rng.NormFloat64() * d.cfg.DriftSigma * 10
		// Physical guardrails.
		d.calib.RabiFactor = math.Max(0.5, math.Min(1.5, d.calib.RabiFactor))
		d.mu.Unlock()
		d.emitTelemetry()
		d.scheduleDrift()
	})
}

// scheduleQA runs the periodic internal QA check (paper §3.4: quality
// assurance jobs scheduled by the QPU itself).
func (d *Device) scheduleQA() {
	d.cfg.Clock.Schedule(d.cfg.QAInterval, "qpu-qa", func() {
		d.RunQACheck()
		d.scheduleQA()
	})
}

// RunQACheck evaluates calibration bounds and flips the device between
// online and degraded. It returns true when the device is healthy.
func (d *Device) RunQACheck() bool {
	d.mu.Lock()
	healthy := math.Abs(d.calib.RabiFactor-1) < 0.05 && math.Abs(d.calib.DetuningOffset) < 1.0
	switch {
	case !healthy && d.status == StatusOnline:
		d.status = StatusDegraded
	case healthy && d.status == StatusDegraded:
		d.status = StatusOnline
	}
	d.mu.Unlock()
	d.emitTelemetry()
	return healthy
}

// emitTelemetry pushes the current state to the registry and TSDB.
func (d *Device) emitTelemetry() {
	if d.mQueueLen == nil && d.cfg.TSDB == nil {
		return
	}
	d.mu.Lock()
	queueLen := float64(len(d.queue))
	rabi := d.calib.RabiFactor
	det := d.calib.DetuningOffset
	var up float64
	switch d.status {
	case StatusOnline:
		up = 1
	case StatusDegraded:
		up = 0.5
	}
	now := d.cfg.Clock.Now()
	d.mu.Unlock()

	if d.mQueueLen != nil {
		d.mQueueLen.Set(nil, queueLen)
		d.mRabi.Set(nil, rabi)
		d.mDetOff.Set(nil, det)
		d.mStatus.Set(nil, up)
	}
	d.tsQueueLen.Append(now, queueLen)
	d.tsRabi.Append(now, rabi)
	d.tsDetOff.Append(now, det)
	d.tsStatus.Append(now, up)
}

// Snapshot is an admin-facing summary of device state.
type Snapshot struct {
	ID           string        `json:"id"`
	Name         string        `json:"name"`
	Status       Status        `json:"status"`
	QueueLength  int           `json:"queue_length"`
	Running      string        `json:"running,omitempty"`
	Calibration  Calibration   `json:"calibration"`
	Utilization  float64       `json:"utilization"`
	TasksTotal   int64         `json:"tasks_total"`
	TasksFailed  int64         `json:"tasks_failed"`
	ShotsTotal   int64         `json:"shots_total"`
	MaintWindows int           `json:"maintenance_windows"`
	Uptime       time.Duration `json:"uptime"`
}

// AdminSnapshot returns the current summary.
func (d *Device) AdminSnapshot() Snapshot {
	util := d.Utilization()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Snapshot{
		ID:           d.id,
		Name:         d.spec.Name,
		Status:       d.status,
		QueueLength:  len(d.queue),
		Calibration:  d.calib,
		Utilization:  util,
		TasksTotal:   d.tasksTotal,
		TasksFailed:  d.tasksFailed,
		ShotsTotal:   d.shotsTotal,
		MaintWindows: d.maintWindows,
		Uptime:       d.cfg.Clock.Now() - d.createdAt,
	}
	if d.running != nil {
		s.Running = d.running.id
	}
	return s
}

// TaskIDs lists all known task IDs sorted by submission order.
func (d *Device) TaskIDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.tasks))
	for id := range d.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return taskNum(ids[i]) < taskNum(ids[j])
	})
	return ids
}

func taskNum(id string) int {
	n, _ := strconv.Atoi(id[len("qpu-task-"):])
	return n
}
