package daemon

import "hpcqc/internal/trace"

// JobStatus returns a session's view of a job.
func (d *Daemon) JobStatus(token, jobID string) (*Job, error) {
	j, err := d.ownedJob(token, jobID)
	if err != nil {
		return nil, err
	}
	cp := *j
	return &cp, nil
}

// QueueLengths reports current queue depth by class, summed over the fleet.
func (d *Daemon) QueueLengths() map[string]int {
	out := map[string]int{"production": 0, "test": 0, "dev": 0}
	for _, ds := range d.fleet {
		for name, n := range queueLens(ds.queue) {
			out[name] += n
		}
	}
	return out
}

// Flight returns the attached flight recorder (nil when tracing without one,
// or when tracing is off) — the store behind GET /api/v1/trace.
func (d *Daemon) Flight() *trace.FlightRecorder { return d.flight }
