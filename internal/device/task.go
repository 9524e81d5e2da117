package device

import (
	"errors"
	"fmt"
	"time"

	"hpcqc/internal/mint"
	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

const taskPrefix = "qpu-task-"

// task resolves a task ID: nil for one never minted or forgotten.
func (d *Device) task(id string) *task { return d.tasks.At(mint.Number(taskPrefix, id)) }

// task is an internal execution record.
type task struct {
	id       string
	num      int // id's number: the record's index in the task table
	program  *qir.Program
	state    TaskState
	result   *qir.Result
	err      error
	queuedAt time.Duration
	startAt  time.Duration
	endAt    time.Duration
	exec     simclock.Event // armed by pump when the task starts
	// setup is extra cold-start occupancy charged before the shots — the
	// daemon's program-cache miss cost. Zero for warm (or cache-less)
	// submissions, leaving timing untouched.
	setup time.Duration
}

// Submit validates and enqueues a program, returning a task ID. Execution
// happens on the simulation clock at the device shot rate. Validation runs
// through the qir verdict memo, so a decoded program resubmitted many times
// pays one full-waveform walk. Submitted programs must therefore not be
// mutated afterwards.
func (d *Device) Submit(p *qir.Program) (string, error) {
	if err := qir.ValidateCached(p, &d.spec); err != nil {
		return "", err
	}
	return d.SubmitWithSetup(p, 0)
}

// SubmitWithSetup is Submit without the validation, for a caller that has
// validated p against Spec() itself (the daemon, once per spec at
// submission), and with a cold-setup charge: the task occupies the QPU for
// setupSeconds before its shots begin, what a daemon program-cache miss pays.
func (d *Device) SubmitWithSetup(p *qir.Program, setupSeconds float64) (string, error) {
	if setupSeconds < 0 {
		return "", fmt.Errorf("device: negative setup seconds %g", setupSeconds)
	}
	if d.status == StatusMaintenance {
		return "", errors.New("device: in maintenance, not accepting tasks")
	}
	t := d.newTask()
	t.num = d.tasks.Push(t)
	t.id = mint.Spell(taskPrefix, t.num)
	t.program, t.state = p, TaskQueued
	t.queuedAt, t.setup = d.cfg.Clock.Now(), simclock.Seconds(setupSeconds)
	d.queue = append(d.queue, t)
	d.pump()
	d.emitTelemetry()
	return t.id, nil
}

// newTask takes a record off the free list Forget fills, or makes one whose
// exec event is bound to it for life.
func (d *Device) newTask() *task {
	if n := len(d.free); n > 0 {
		t := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return t
	}
	t := &task{}
	t.exec.Name, t.exec.Fn = "qpu-exec", func() { d.finish(t) }
	return t
}

// pump starts the next queued task if the device is idle.
func (d *Device) pump() {
	if d.running != nil || len(d.queue) == 0 || d.status == StatusMaintenance {
		return
	}
	t := d.queue[0]
	d.queue[0] = nil
	if len(d.queue) == 1 {
		d.queue = d.queue[:0] // keep the backing array for the next task
	} else {
		d.queue = d.queue[1:]
	}
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
	d.cfg.Clock.Arm(&t.exec, dur)
}

// finish computes the task result and starts the next task.
func (d *Device) finish(t *task) {
	if t.state != TaskRunning {
		return
	}
	res, err := d.execute(t.program, d.calib, d.rng.Int63())
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
		d.cShots.Inc(float64(t.program.Shots))
	}
	d.tasksTotal++
	if d.mTasks != nil {
		c, ok := d.cTasks[t.state]
		if !ok {
			c = d.mTasks.Bind(telemetry.Labels{"state": string(t.state)})
			d.cTasks[t.state] = c
		}
		c.Inc(1)
	}
	d.running = nil
	if d.listener != nil {
		d.listener(d.id, t.id, t.state)
	}
	d.pump()
	d.emitTelemetry()
}

// TaskStatus returns the lifecycle state of a task.
func (d *Device) TaskStatus(id string) (TaskState, error) {
	t := d.task(id)
	if t == nil {
		return "", fmt.Errorf("device: unknown task %q", id)
	}
	return t.state, nil
}

// TaskResult returns the result of a completed task. On a TimingOnly device
// the result's Counts and Metadata maps are shared with every other
// timing-only result and must not be written; copy them to annotate.
func (d *Device) TaskResult(id string) (*qir.Result, error) {
	t := d.task(id)
	if t == nil {
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
//
// A task that ran to its end (completed or failed) is recycled: its exec
// event has fired, so nothing calls back into the record, and the next
// Submit reuses it. The Result it handed out is not the record's to reuse —
// the record lets go of it. A cancelled task is only dropped, as a cancel is
// rare enough that recycling it would buy nothing.
func (d *Device) Forget(id string) {
	if t := d.task(id); t != nil && t.state != TaskQueued && t.state != TaskRunning {
		d.tasks.Drop(t.num)
		if t.state != TaskCancelled {
			*t = task{exec: t.exec}
			d.free = append(d.free, t)
		}
	}
}

// Cancel aborts a queued or running task.
func (d *Device) Cancel(id string) error {
	t := d.task(id)
	if t == nil {
		return fmt.Errorf("device: unknown task %q", id)
	}
	switch t.state {
	case TaskQueued:
		for i, q := range d.queue {
			if q == t {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
		t.state = TaskCancelled
		if d.listener != nil {
			d.listener(d.id, t.id, TaskCancelled)
		}
	case TaskRunning:
		d.cfg.Clock.Cancel(&t.exec)
		t.state = TaskCancelled
		t.endAt = d.cfg.Clock.Now()
		d.totalBusy += t.endAt - t.startAt
		d.running = nil
		if d.listener != nil {
			d.listener(d.id, t.id, TaskCancelled)
		}
		d.pump()
	default:
		return fmt.Errorf("device: task %s already %s", id, t.state)
	}
	d.emitTelemetry()
	return nil
}

// WaitTime returns how long a task waited in queue before starting; zero for
// tasks that have not started.
func (d *Device) WaitTime(id string) (time.Duration, error) {
	t := d.task(id)
	if t == nil {
		return 0, fmt.Errorf("device: unknown task %q", id)
	}
	if t.state == TaskQueued {
		return 0, nil
	}
	return t.startAt - t.queuedAt, nil
}
