package loadgen

import (
	"math"
	"slices"

	"hpcqc/internal/daemon"
)

// Recorder captures arrivals from a live daemon run into a trace. Attach its
// Observe method as (or inside) the daemon's Config.JobListener; every
// accepted submission becomes one trace record, stamped with the simulation
// time the daemon saw it. Replaying the result reproduces the run's offered
// load — including completion-coupled arrival patterns a closed-loop
// generator produced — as an open-loop schedule. The records stay in memory
// until Trace packages them; Trace.Write puts them on disk.
//
// A Recorder is a job listener like any other and keeps no lock: the daemon
// calls Observe inside its world, so Trace is read after the run, or from
// inside the world while it goes on.
type Recorder struct {
	shotRate float64
	records  []Record
}

// NewRecorder returns a recorder. shotRateHz converts the daemon's expected-
// QPU-seconds hint back into the record's shot count; 0 uses the canonical
// 1 Hz rate.
func NewRecorder(shotRateHz float64) *Recorder {
	if shotRateHz <= 0 {
		shotRateHz = canonicalShotRateHz
	}
	return &Recorder{shotRate: shotRateHz}
}

// Observe consumes a daemon job event; only arrivals are recorded — accepted
// submissions and admission-stage rejections alike, since both are offered
// load (replaying the trace under a different admission policy re-decides
// each arrival's fate). A down-classed job is recorded at the class the
// submitter asked for, for the same reason.
func (r *Recorder) Observe(ev daemon.JobEvent) {
	if ev.Type != daemon.JobEventSubmitted && ev.Type != daemon.JobEventRejected {
		return
	}
	shots := int(math.Round(ev.Job.ExpectedQPUSeconds * r.shotRate))
	if shots < 1 {
		shots = 1
	}
	class := ev.Job.Class
	if ev.Job.RequestedClass > class {
		class = ev.Job.RequestedClass
	}
	r.records = append(r.records, Record{
		Seq:                len(r.records),
		AtUS:               ev.At.Microseconds(),
		User:               ev.Job.User,
		Class:              class.String(),
		Pattern:            string(ev.Job.Pattern),
		Qubits:             2,
		Shots:              shots,
		ExpectedQPUSeconds: ev.Job.ExpectedQPUSeconds,
	})
}

// Trace packages the captured arrivals under a "recorded" header. The seed
// and process describe provenance; horizon should cover the run.
func (r *Recorder) Trace(seed int64, process string, horizon int64) *Trace {
	records := slices.Clone(r.records)
	return &Trace{
		Header: TraceHeader{
			Format:    TraceFormat,
			Version:   TraceVersion,
			Mode:      "recorded",
			Process:   process,
			Seed:      seed,
			HorizonUS: horizon,
			Jobs:      len(records),
		},
		Records: records,
	}
}
