package daemon

// Stage 4 of the pipeline: the per-partition dispatch loop — when to run, in
// what order, whom to preempt.

import (
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

// dispatchDevice runs the partition's dispatch loop until an attempt makes
// no progress. A dispatch that preempts re-enters it through the victim's
// settlement, which runs the production job's start at once; the outer loop
// then finds the partition busy and stops.
func (d *Daemon) dispatchDevice(ds *deviceState) {
	for d.dispatchOnce(ds) {
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
	// A cancel marks the record before it removes the queue entry, so a head
	// that is no longer queued is a leftover — drop it rather than let a dead
	// production job get a victim preempted on its behalf.
	head, run := next.Payload.(*Job), ds.running
	switch {
	case head.State != JobQueued:
		ds.queue.Remove(head.ID)
		return true
	case run != nil && d.cfg.EnablePreemption && sched.ShouldPreempt(next.Class, run.Class):
		run.Preemptions++
		d.preemptTotal++
		d.notify(JobEventPreempted, run)
		// Cancelling the device task triggers onDeviceTask, which requeues
		// the victim and dispatches the partition again.
		_ = ds.dev.Cancel(run.DeviceTask)
		return true
	case run != nil:
		return false
	}

	// The partition is idle.
	item := d.popNext(ds)
	if item == nil {
		return false
	}
	j := item.Payload.(*Job)
	if j.State != JobQueued {
		return true // stale item (cancelled while queued); try the next one
	}
	// Consult the partition's program cache at the moment of dispatch: a warm
	// entry means this partition ran the program recently and skips the cold
	// setup cost; a miss warms the cache (possibly evicting the LRU entry)
	// and pays Config.SetupSeconds of extra device occupancy. The outcome is
	// recorded on the job before the Started event fires, so listeners (the
	// loadgen SLO analyzer) see it on every start.
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

	// The program was decoded at submission, and validate decided there that
	// this partition can run it (routing and requeue keep a job to its
	// capable set), so the device takes the decode without a second check.
	taskID, err := ds.dev.SubmitWithSetup(j.prog, setup)
	if err != nil {
		// Submission failed (maintenance window, ...).
		d.finish(j, JobFailed, err)
		return true
	}
	d.startJob(ds, j, taskID)
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
		// Lane weights are the live per-user usage, read in place.
		return ds.queue.PopRanked(r, d.usageByUser)
	}
	if _, constant := d.priority.(constantPriority); constant {
		return d.order.Pop(ds.queue, d.usage)
	}
	var tie func(a, b *sched.Item) bool
	if r := d.tieOrder; r != nil {
		tie = scoreTie(r, d.usageByUser)
	}
	now := d.cfg.Clock.Now()
	return ds.queue.PopByScore(func(it *sched.Item) float64 {
		return d.priority.Score(it, now)
	}, tie)
}

// usage is the per-user accumulated QPU-seconds map — the fair-share order's
// key — as OrderPolicy.Pop asks for it: the live map, read in place.
func (d *Daemon) usage() map[string]float64 { return d.usageByUser }

// startJob records a successful device submission.
func (d *Daemon) startJob(ds *deviceState, j *Job, taskID string) {
	now := d.cfg.Clock.Now()
	ds.running = j
	j.State = JobRunning
	j.StartedAt = now
	j.DeviceTask = taskID
	wait := now - j.SubmittedAt
	d.waitSum[j.Class] += wait
	d.waitCount[j.Class]++
	d.bWait[j.Class].Observe(wait.Seconds())
	d.feed(admission.Signal{Class: j.Class, At: now, WaitSeconds: wait.Seconds()})
	d.notify(JobEventStarted, j)
	if !d.traced() {
		return
	}
	cls := j.Class.String()
	if d.spanMarks {
		// Close the partition's idle occupancy span.
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
