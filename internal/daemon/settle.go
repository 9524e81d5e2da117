package daemon

// How a dispatched job comes back: device task notifications settle into a
// finish or a requeue, and cancellation cuts a job short. Every ending goes
// through finish (job.go).

import (
	"fmt"
	"slices"

	"hpcqc/internal/device"
	"hpcqc/internal/trace"
)

// onDeviceTask is a partition's device listener, bound to it at
// construction: a terminal device task finishes or requeues its daemon job,
// the device forgets it, and the partition dispatches again. The partition
// has one task of its own on the device at a time, its running job's: a
// preempted victim's cancel settles inside Device.Cancel, before the
// partition starts another. Any other task is not ours (e.g. a pre-existing
// task on a FleetOf-wrapped device).
func (d *Daemon) onDeviceTask(ds *deviceState, taskID string, state device.TaskState) {
	j := ds.running
	if j == nil || j.DeviceTask != taskID {
		return
	}
	ds.running = nil
	if d.spanMarks {
		// Close the partition's busy occupancy span.
		now := d.cfg.Clock.Now()
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageBusy, Class: j.Class.String(),
			Device: ds.id, Start: ds.occSince, End: now})
		ds.occSince = now
	}
	switch {
	case state == device.TaskCompleted || state == device.TaskFailed:
		res, err := ds.dev.TaskResult(taskID)
		if state == device.TaskCompleted && err == nil {
			d.usageByUser[j.User] += res.QPUSeconds
			j.res = res
			d.finish(j, JobCompleted, nil)
		} else {
			d.finish(j, JobFailed, err)
		}
	case j.Preemptions > 0 && j.State == JobRunning:
		d.requeue(ds, j)
	default:
		d.finish(j, JobCancelled, nil) // a no-op when CancelJob got there first
	}
	// The job now carries everything the task had to say (result, error,
	// timing): the daemon forgets a device task when it settles it, or every
	// finished task's program, result and clock event would outlive the job.
	ds.dev.Forget(taskID)
	d.emitQueueTelemetry()
	d.dispatchDevice(ds)
}

// requeue puts a preempted job back in a queue. Cross-partition requeue: if
// another idle partition can take the victim, it is re-routed through the
// router rather than pinned behind the production job that evicted it.
// Seniority (original submit time) is preserved inside its class by FIFO on
// re-push.
func (d *Daemon) requeue(ds *deviceState, j *Job) {
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
	target := ds
	if len(d.fleet) > 1 && !j.Pinned {
		target = d.requeuePartition(j, ds)
	}
	j.Device = target.id
	d.notify(JobEventRequeued, j)
	if d.spanMarks {
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.MarkRequeued, Class: j.Class.String(),
			Device: target.id, Start: now, End: now})
	}
	_ = d.push(target, j) // a refused push has failed the job
	if target != ds {
		d.dispatchDevice(target)
	}
}

// requeuePartition picks where a preempted job that may move — unpinned, on
// a fleet of more than one partition — waits next. It stays on its original
// partition unless some other partition that can run it is completely idle —
// then the router re-picks from a fresh fleet snapshot (the first ROADMAP
// follow-up: work lost to preemption flows to idle capacity instead of
// queueing behind its preemptor). The router's pick is honored only when it
// lands on such an idle partition: a load-blind pick (round-robin pointing at
// a backlogged partition) must not strand the victim somewhere worse than
// where it was.
func (d *Daemon) requeuePartition(j *Job, orig *deviceState) *deviceState {
	infos := d.fleetInfos(j.capable)
	// idle reports whether a partition can absorb the victim now: not the
	// original, able to run it, online and at zero load.
	idle := func(info DeviceInfo) bool {
		return d.fleet[info.Index] != orig && !info.incapable &&
			info.Status == device.StatusOnline && info.load() == 0
	}
	if !slices.ContainsFunc(infos, idle) {
		return orig
	}
	idx := d.routerPick(infos, j.Class, j.Pattern, j.progHash)
	if idx < 0 || idx >= len(d.fleet) || !idle(infos[idx]) {
		return orig
	}
	return d.fleet[idx]
}

// CancelJob cancels a queued or running job. Sessions may cancel their own
// jobs — any other ID is ErrUnknownJob to them; admin-initiated cancellations
// pass force=true and reach every job.
func (d *Daemon) CancelJob(token, jobID string, force bool) error {
	var j *Job
	var err error
	if !force {
		j, err = d.ownedJob(token, jobID)
	} else if j = d.job(jobID); j == nil {
		err = fmt.Errorf("%w %q", ErrUnknownJob, jobID)
	}
	if err != nil {
		return err
	}
	// Turn the record terminal before touching the partition: onDeviceTask
	// then does not requeue the device task withdrawn below.
	state, taskID, ds := j.State, j.DeviceTask, d.byDevice[j.Device]
	switch {
	case !d.finish(j, JobCancelled, nil):
		return fmt.Errorf("daemon: job %s already %s", jobID, state)
	case state == JobQueued:
		ds.queue.Remove(jobID)
	default:
		_ = ds.dev.Cancel(taskID)
	}
	d.emitQueueTelemetry()
	return nil
}
