package daemon

// The intake half of the pipeline (see pipeline.go): Submit walks a
// submission through validate → admit → route → enqueue, then hands the
// partition to dispatch.go.

import (
	"fmt"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/trace"
)

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

// submission is one Submit call's working state as it moves through the
// stages.
type submission struct {
	req  SubmitRequest
	sess *Session
	// prog is the decoded program and progHash its fingerprint; capable holds
	// the spec kinds that can run it, kind the first, which estimates use;
	// pinned is the partition req.Device names.
	prog     *qir.Program
	progHash uint64
	capable  specSet
	kind     int
	pinned   *deviceState
	// estimated marks req.ExpectedQPUSeconds as the daemon's own estimate
	// rather than the submitter's declaration.
	estimated bool
	// dec is the door's verdict; its Class is the class the record carries.
	dec admission.Decision

	// Stage spans carry the job ID, which exists only once the record is
	// minted — after admission for a shed job, after routing for an accepted
	// one. Each stage files its span here as it ends (stageDone) and newJob
	// emits them. In pure replay the stages collapse to instants
	// (the clock does not advance inside Submit); under the live wall-clock
	// pump they carry real deliberation time. mark is when the current stage
	// began.
	traced bool
	mark   time.Duration
	spans  [3]trace.Span
	nspans int
}

// stageDone ends the submission's current pipeline stage, filing its span
// field by field into its zeroed slot (newJob fills in Job and Class).
func (d *Daemon) stageDone(sub *submission, stage trace.Stage, device, detail string) {
	if !sub.traced {
		return
	}
	now := d.cfg.Clock.Now()
	sp := &sub.spans[sub.nspans]
	sp.Stage, sp.Device, sp.Start, sp.End, sp.Detail = stage, device, sub.mark, now, detail
	sub.nspans++
	sub.mark = now
}

// Submit walks a submission through the pipeline stages (see pipeline.go):
// validation checks that some partition could run it, admission decides
// whether — and at what class — the job enters, routing picks its partition,
// queueing inserts it under the within-class order, and dispatch runs the
// partition's loop. It returns a copy of the accepted record, by value so a
// caller that discards it pays nothing for it; a shed submission returns a
// *RejectedError carrying a copy of the terminal rejected record.
func (d *Daemon) Submit(token string, req SubmitRequest) (Job, error) {
	s, err := d.session(token)
	if err != nil {
		return Job{}, err
	}
	sub := submission{req: req, sess: s}
	if d.traced() {
		sub.traced, sub.mark = true, d.cfg.Clock.Now()
	}
	if err := d.validate(&sub); err != nil {
		return Job{}, err
	}
	if err := d.admit(&sub); err != nil {
		return Job{}, err
	}
	if sub.dec.Outcome == admission.Rejected {
		return Job{}, d.shed(&sub)
	}
	ds, err := d.route(&sub)
	if err != nil {
		return Job{}, err
	}
	j, err := d.enqueue(&sub, ds)
	if err != nil {
		return Job{}, err
	}
	d.emitQueueTelemetry()
	d.dispatchDevice(ds)
	// Copy through the pointer, not the table: on a daemon with a short
	// History a fast job may already have finished and been evicted.
	return *j, nil
}

// requestError is a submission the request itself got wrong — a class out of
// range, a negative hint, a pin to a partition the fleet lacks — as against a
// program the daemon cannot decode or no partition can run. POST /api/v1/jobs
// answers it 400, and the program refusals 422.
type requestError struct{ error }

// specSet is a set of spec kinds, bit k for Daemon.kinds[k].
type specSet uint64

// validate is the stage before admission: request sanity, decode, and the
// capability rule — the one place the daemon decides which partitions can run
// the program, validating it once per distinct spec (kind) in the fleet, or
// for the pinned partition's kind alone. Routing, requeue and dispatch keep
// to that answer, so admission, which comes next, spends a stateful policy's
// quota only on submissions that will run where they land.
func (d *Daemon) validate(sub *submission) error {
	req := &sub.req
	if req.Class < sched.ClassDev || req.Class > sched.ClassProduction {
		return requestError{fmt.Errorf("daemon: invalid class %d", req.Class)}
	}
	if req.ExpectedQPUSeconds < 0 {
		return requestError{fmt.Errorf("daemon: negative expected QPU seconds %g", req.ExpectedQPUSeconds)}
	}
	if req.DeadlineSeconds < 0 {
		return requestError{fmt.Errorf("daemon: negative deadline seconds %g", req.DeadlineSeconds)}
	}
	var err error
	if sub.prog, sub.progHash, err = cachedProgram(req.Program); err != nil {
		return err
	}
	if req.Device != "" {
		if sub.pinned, err = d.lookupDevice(req.Device); err != nil {
			return requestError{err}
		}
	}
	for k, spec := range d.kinds {
		if sub.pinned == nil || k == sub.pinned.kind {
			if err = qir.ValidateCached(sub.prog, spec); err == nil {
				if sub.capable == 0 {
					sub.kind = k
				}
				sub.capable |= 1 << k
			}
		}
	}
	if sub.capable == 0 { // every verdict, the last one in err, refused
		return fmt.Errorf("daemon: program rejected: %w", err)
	}
	// Resolve the duration hint before admission too, so policies — and the
	// terminal record of a shed submission — see the daemon's estimate, not
	// a missing hint: against the first capable kind, which route re-derives
	// it from if the job lands on another.
	if sub.estimated = req.ExpectedQPUSeconds == 0; sub.estimated {
		req.ExpectedQPUSeconds = sub.prog.EstimatedQPUSeconds(d.kinds[sub.kind])
	}
	d.stageDone(sub, trace.StageValidate, "", "")
	return nil
}

// admit is stage 1: the door. Pins bypass the router, not the door. The
// Decision contract is enforced on custom policies before the class is acted
// on: Accepted keeps the requested class (the zero Class value is ClassDev,
// so an unset field must not silently down-class the job), Downgraded must go
// strictly down and stay in range. A shed job is recorded at the class it
// asked for.
func (d *Daemon) admit(sub *submission) error {
	req := &sub.req
	dec := d.admitStage(sub.req, sub.sess.User)
	switch {
	case dec.Outcome == admission.Rejected:
		dec.Class = req.Class
	case dec.Outcome == admission.Accepted && dec.Class != req.Class:
		return fmt.Errorf("daemon: admission policy %q accepted a %s job at class %d (use the Downgraded outcome to change class)",
			d.admitter.Name(), req.Class, dec.Class)
	case dec.Outcome == admission.Downgraded && (dec.Class < sched.ClassDev || dec.Class >= req.Class):
		return fmt.Errorf("daemon: admission policy %q downgraded a %s job to invalid class %d",
			d.admitter.Name(), req.Class, dec.Class)
	case dec.Outcome != admission.Accepted && dec.Outcome != admission.Downgraded:
		return fmt.Errorf("daemon: admission policy %q returned unknown outcome %q", d.admitter.Name(), dec.Outcome)
	}
	sub.dec = dec
	if sub.traced {
		d.stageDone(sub, trace.StageAdmission, "", d.admissionDetail(dec))
	}
	return nil
}

// shed ends a submission the door refused. It still gets a record — minted
// and turned terminal at once — owned by its session like any accepted job,
// so status queries and the admin listing surface the rejection, its reason
// and the retry-after backoff hint.
func (d *Daemon) shed(sub *submission) error {
	hint := d.retryAfterHint(sub.req.Class)
	j := d.newJob(sub, "")
	j.RetryAfterSeconds = hint
	d.finish(j, JobRejected, nil)
	return &RejectedError{Job: *j, Reason: sub.dec.Reason}
}

// route is stage 2: pick the partition and settle what depends on the pick.
func (d *Daemon) route(sub *submission) (*deviceState, error) {
	req := &sub.req
	ds, err := d.pick(sub.dec.Class, req.Pattern, sub.pinned, sub.capable, sub.progHash)
	if err != nil {
		return nil, err
	}
	// The job may land on another capable kind than its daemon-made estimate
	// came from: re-derive it there (a submitter's hint is never touched).
	if sub.estimated && ds.kind != sub.kind {
		req.ExpectedQPUSeconds = sub.prog.EstimatedQPUSeconds(&ds.spec)
	}
	// Tighten the daemon-made estimate with the setup model: a cold dispatch
	// occupies the device for setup + execution, so the hint the shortest-
	// first order and admission policies see should include it — unless the
	// routed partition is already warm for this program, in which case the
	// hit will skip setup and the bare execution estimate is the tight one.
	// (Submitter-declared hints are never touched; SetupSeconds > 0 implies
	// caching is on, so the cache-less path is unchanged.)
	if sub.estimated && d.cfg.SetupSeconds > 0 && !ds.cache.contains(sub.progHash) {
		req.ExpectedQPUSeconds += d.cfg.SetupSeconds
	}
	if sub.traced {
		detail := d.router.Name()
		if req.Device != "" {
			detail = "pinned"
		}
		d.stageDone(sub, trace.StageRoute, ds.id, detail)
	}
	return ds, nil
}

// pick chooses the target partition: the pin, or the router's choice among
// the partitions that can run the program, from a point-in-time fleet
// snapshot. Class, pattern and fingerprint travel on a scratch job record (the
// affinity scorer probes partition caches by fingerprint), so the daemon need
// not pre-create the real one.
func (d *Daemon) pick(class sched.Class, pattern sched.Pattern, pinned *deviceState, capable specSet, progHash uint64) (*deviceState, error) {
	switch {
	case pinned != nil:
		return pinned, nil
	case len(d.fleet) == 1:
		return d.fleet[0], nil
	}
	idx := d.routerPick(d.fleetInfos(capable), class, pattern, progHash)
	if idx < 0 || idx >= len(d.fleet) {
		return nil, fmt.Errorf("daemon: router %q picked invalid device index %d", d.router.Name(), idx)
	}
	return d.fleet[idx], nil
}

// routerPick asks the router for a partition on the snapshot infos, lending
// it the reused scratch job; Pick retains neither (see Router).
func (d *Daemon) routerPick(infos []DeviceInfo, class sched.Class, pattern sched.Pattern, progHash uint64) int {
	j := &d.routeJob
	j.Class, j.Pattern, j.progHash = class, pattern, progHash
	return d.router.Pick(j, infos)
}

// fleetInfos fills the router's point-in-time fleet view of a job the capable
// kinds can run — one definition for routing and requeue, so the two never
// disagree about load or capability — into the one slice every pick reuses.
func (d *Daemon) fleetInfos(capable specSet) []DeviceInfo {
	infos := d.routeInfos
	for i, ds := range d.fleet {
		info := DeviceInfo{
			ID:        ds.id,
			Index:     i,
			Status:    ds.dev.Status(),
			Queued:    ds.queue.Len(),
			cache:     ds.cache,
			incapable: capable&(1<<ds.kind) == 0,
		}
		if ds.running != nil {
			info.Busy = true
			info.RunningClass = ds.running.Class
		}
		infos[i] = info
	}
	return infos
}

// enqueue is stage 3: mint the record on its partition and put it on that
// partition's ClassQueue, which holds it under class priority until the
// configured order and priority pick it at pop time. "submitted" is emitted
// before the push, so it always precedes "started" in listener order.
func (d *Daemon) enqueue(sub *submission, ds *deviceState) (*Job, error) {
	j := d.newJob(sub, ds.id)
	d.notify(JobEventSubmitted, j)
	return j, d.push(ds, j)
}

// push puts the job on the partition's queue. A push the queue refuses
// fails the job — terminal state, Finished event and span like any other
// failure — rather than leaving a queued record no dispatch will ever reach.
func (d *Daemon) push(ds *deviceState, j *Job) error {
	err := ds.queue.Push(d.queueItem(j))
	if err != nil {
		d.finish(j, JobFailed, err)
	}
	return err
}
