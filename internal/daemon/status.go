package daemon

// Read paths and the admin plane: job status and results for sessions, the
// node overview, gated low-level controls, queue telemetry.

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
)

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

// ErrUnknownJob is the answer for a job ID the asking session cannot see.
var ErrUnknownJob = errors.New("daemon: unknown job")

// ownedJob resolves a job ID for the session asking. Another session's job,
// an evicted one and one that never existed all read the same:
// ErrUnknownJob.
func (d *Daemon) ownedJob(token, jobID string) (*Job, error) {
	s := d.sessions[token]
	if s == nil {
		return nil, errors.New("daemon: invalid session token")
	}
	j := d.job(jobID)
	if j == nil || j.sess != s {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, jobID)
	}
	return j, nil
}

// renderedResult returns a completed job's result as JSON, rendering it on
// first use: replays, where no one fetches results, never pay for the marshal.
func (j *Job) renderedResult() ([]byte, error) {
	if j.result == nil && j.res != nil {
		var err error
		if j.result, err = json.Marshal(j.res); err != nil {
			return nil, err
		}
	}
	return j.result, nil
}

// jobStatusResults is a session's view of a job and, for a completed job, its
// JobResult — of jobID, then of each also ID the session can see, in that
// order. The copies carry the rendered result, so a reply built from them
// outside the world needs no second look, which retention could answer with
// an evicted record. A result that fails to render is left out of its copy;
// JobResult is where the caller then reads why.
func (d *Daemon) jobStatusResults(token, jobID string, also []string) ([]Job, error) {
	jobs := make([]Job, 0, 1+len(also))
	for i, id := range append([]string{jobID}, also...) {
		j, err := d.ownedJob(token, id)
		if err != nil {
			if i == 0 {
				return nil, err
			}
			continue
		}
		if j.State == JobCompleted {
			_, _ = j.renderedResult()
		}
		jobs = append(jobs, *j)
	}
	return jobs, nil
}

// JobResult returns the serialized result of a completed job. Every other
// terminal state answers with an error that says why there is none, and only
// a job still queued or running with qrmi.ErrResultNotReady, so a caller
// polling until "ready" always terminates.
func (d *Daemon) JobResult(token, jobID string) ([]byte, error) {
	j, err := d.ownedJob(token, jobID)
	if err != nil {
		return nil, err
	}
	switch j.State {
	case JobCompleted:
		return j.renderedResult()
	case JobFailed:
		return nil, fmt.Errorf("daemon: job failed: %s", j.Error)
	case JobCancelled:
		return nil, errors.New("daemon: job was cancelled")
	case JobRejected:
		return nil, fmt.Errorf("daemon: job rejected at admission: %s", j.AdmissionReason)
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
	// JobsBySource counts every job ever submitted per intake path, shed
	// ones included, so the hosting site can see how much work arrives via
	// Slurm versus a cloud interface (§3.3 envisions multiple sources
	// feeding one daemon).
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
	}
	for _, ds := range d.fleet {
		dr := DeviceReport{
			ID:           ds.id,
			Device:       ds.dev.AdminSnapshot(),
			QueuedByName: queueLens(ds.queue),
		}
		if ds.running != nil {
			dr.Running = ds.running.ID
		}
		for name, n := range dr.QueuedByName {
			rep.QueuedByName[name] += n
		}
		if rep.Running == "" && dr.Running != "" {
			rep.Running = dr.Running
		}
		rep.Devices = append(rep.Devices, dr)
	}
	rep.Device = rep.Devices[0].Device
	rep.Sessions = len(d.sessions)
	rep.Preemptions = d.preemptTotal
	rep.Rejected = d.rejectedTotal
	rep.JobsBySource = maps.Clone(d.jobsBySource)
	for class, n := range d.waitCount {
		if n > 0 {
			rep.MeanWait[class.String()] = d.waitSum[class] / time.Duration(n)
		}
	}
	return rep
}

// ListJobs returns a snapshot of every record in the job table — the jobs in
// flight and the retained history — newest first, for the admin plane. The
// table is in mint order, which is submit order (the clock never runs
// backwards): a total order even among jobs submitted at one instant.
func (d *Daemon) ListJobs() []*Job {
	slots := d.jobs.Slots()
	out := make([]*Job, 0, len(slots))
	for i := len(slots) - 1; i >= 0; i-- {
		if j := slots[i]; j != nil {
			cp := *j
			out = append(out, &cp)
		}
	}
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

// emitQueueTelemetry samples every partition's and the fleet's queue depth
// by class into the registry and the TSDB, through handles bound in
// NewDaemon: it runs on every submit, dispatch and settle, and allocates
// nothing.
func (d *Daemon) emitQueueTelemetry() {
	if d.cfg.Registry == nil && d.cfg.TSDB == nil {
		return
	}
	now := d.cfg.Clock.Now()
	var totals [3]float64
	for _, ds := range d.fleet {
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			n := float64(ds.queue.LenClass(c))
			totals[c] += n
			ds.gQueue[c].Set(n)
			ds.tsQueue[c].Append(now, n)
		}
		if ds.gUtil != nil {
			ds.gUtil.Set(ds.dev.Utilization())
		}
	}
	for c, total := range totals {
		d.bQueueTotal[c].Set(total)
		d.tsQueueTotal[c].Append(now, total)
	}
}

// queueLens snapshots a partition queue's depth by class name.
func queueLens(q *sched.ClassQueue) map[string]int {
	return map[string]int{
		"production": q.LenClass(sched.ClassProduction),
		"test":       q.LenClass(sched.ClassTest),
		"dev":        q.LenClass(sched.ClassDev),
	}
}
