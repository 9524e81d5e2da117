package daemon

// Stage 4 of the pipeline: the per-partition dispatch loop — when to run, in
// what order, whom to preempt.

import (
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/trace"
)

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
	// Judge the head under the d.mu hold CancelJob flips states under: a
	// cancel marks the record before it removes the queue entry, so a head
	// that is no longer queued is a leftover — drop it rather than let a dead
	// production job get a victim preempted on its behalf.
	head := next.Payload.(*Job)
	ds.mu.Lock()
	d.mu.Lock()
	run := ds.running
	stale := head.State != JobQueued
	preempt := !stale && run != nil && d.cfg.EnablePreemption && sched.ShouldPreempt(next.Class, run.Class)
	var victimTask string
	if preempt {
		victimTask = run.DeviceTask
		run.Preemptions++
		d.preemptTotal++
		d.notify(JobEventPreempted, *run)
	}
	d.mu.Unlock()
	ds.mu.Unlock()
	switch {
	case stale:
		ds.queue.Remove(head.ID)
		return true
	case preempt:
		// Cancelling the device task triggers onDeviceTask, which requeues
		// the victim and wakes the loop.
		_ = ds.dev.Cancel(victimTask)
		return true
	case run != nil:
		return false
	}

	// The partition is idle. One ds.mu hold covers the pop, the device
	// submission and the task's registration: a routing snapshot sees the job
	// queued or running, never neither, and the task's terminal notification
	// (onDeviceTask takes ds.mu) cannot overtake its registration, even when
	// another goroutine advances the clock. The device never calls its
	// listener from inside SubmitWithSetup; Cancel does, so it runs after.
	ds.mu.Lock()
	item := d.popNext(ds)
	if item == nil {
		ds.mu.Unlock()
		return false
	}
	j := item.Payload.(*Job)
	d.mu.Lock()
	if j.State != JobQueued {
		d.mu.Unlock()
		ds.mu.Unlock()
		return true // stale item (cancelled while queued); try the next one
	}
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
	// dispatch reuses that decode.
	now := d.cfg.Clock.Now()
	taskID, err := ds.dev.SubmitWithSetup(prog, setup)
	if err != nil {
		ds.mu.Unlock()
		// Submission failed (validation drift, maintenance window, ...).
		d.finishJob(j, JobFailed, err)
		return true
	}
	cancelled := d.startJob(ds, j, taskID, now)
	ds.mu.Unlock()
	if cancelled {
		_ = ds.dev.Cancel(taskID)
	}
	d.emitQueueTelemetry()
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

// startJob records a successful device submission made at now, under ds.mu.
// It registers even a cancelled job's task, so the cancellation callback
// flows through settleTask, which leaves the terminal job alone. It reports
// whether the job was cancelled since dispatchOnce's queued-state check: the
// caller then withdraws the task once ds.mu is released.
func (d *Daemon) startJob(ds *deviceState, j *Job, taskID string, now time.Duration) (cancelled bool) {
	ds.running = j
	ds.byTask[taskID] = j
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.State != JobQueued {
		return true
	}
	j.State = JobRunning
	j.StartedAt = now
	j.DeviceTask = taskID
	wait := now - j.SubmittedAt
	d.waitSum[j.Class] += wait
	d.waitCount[j.Class]++
	d.bWait[j.Class].Observe(wait.Seconds())
	d.feed(admission.Signal{Class: j.Class, At: now, WaitSeconds: wait.Seconds()})
	d.notify(JobEventStarted, *j)
	if !d.traced() {
		return false
	}
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
	return false
}
