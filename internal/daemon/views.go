package daemon

import (
	"encoding/json"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// The reply views. Each was a map[string]any before it was a struct, and
// encoding/json writes a map's keys sorted: fields are declared in that
// order, and a key the map set only on a condition is omitempty here, so the
// bytes on the wire are the ones clients have always parsed
// (testdata/*_wire.golden). A new field goes where its key sorts.

// jobView is a job as every job-bearing reply renders it: the 202 and 429 of
// POST /api/v1/jobs, GET /api/v1/jobs/{id} and each element of
// GET /admin/v1/jobs.
type jobView struct {
	AdmissionOutcome string `json:"admission_outcome,omitempty"`
	// AdmissionReason and Error are pointers because their keys can be
	// present and empty: the reason whenever there is an outcome, the error
	// whenever a 429 overrides it with the rejection's.
	AdmissionReason *string `json:"admission_reason,omitempty"`
	// Also is set by the status handler alone: the jobs ?also= named.
	Also               []jobView `json:"also,omitempty"`
	Class              string    `json:"class"`
	DeadlineSeconds    float64   `json:"deadline_seconds,omitempty"`
	Device             string    `json:"device,omitempty"`
	Error              *string   `json:"error,omitempty"`
	ExpectedQPUSeconds float64   `json:"expected_qpu_seconds"`
	FinishedAt         float64   `json:"finished_at,omitempty"`
	ID                 string    `json:"id"`
	Pattern            string    `json:"pattern,omitempty"`
	Preemptions        int       `json:"preemptions"`
	RequestedClass     string    `json:"requested_class,omitempty"`
	// Result is set by the status handler alone, for a completed job.
	Result            json.RawMessage `json:"result,omitempty"`
	RetryAfterSeconds float64         `json:"retry_after_seconds,omitempty"`
	Source            string          `json:"source"`
	StartedAt         float64         `json:"started_at,omitempty"`
	State             string          `json:"state"`
	SubmittedAt       float64         `json:"submitted_at"`
	User              string          `json:"user"`
}

// newJobView renders a job for API consumers. j must outlive the encode: the
// view points into it.
func newJobView(j *Job) jobView {
	// Times and hints count when positive; omitempty drops the zero.
	v := jobView{
		AdmissionOutcome:   j.AdmissionOutcome,
		Class:              j.ClassName(),
		DeadlineSeconds:    max(j.DeadlineSeconds, 0),
		Device:             j.Device,
		ExpectedQPUSeconds: j.ExpectedQPUSeconds,
		FinishedAt:         max(j.FinishedAt, 0).Seconds(),
		ID:                 j.ID,
		Pattern:            string(j.Pattern),
		Preemptions:        j.Preemptions,
		RetryAfterSeconds:  max(j.RetryAfterSeconds, 0),
		Source:             j.Source,
		StartedAt:          max(j.StartedAt, 0).Seconds(),
		State:              string(j.State),
		SubmittedAt:        j.SubmittedAt.Seconds(),
		User:               j.User,
	}
	if j.Error != "" {
		v.Error = &j.Error
	}
	if j.AdmissionOutcome != "" {
		v.AdmissionReason = &j.AdmissionReason
		if j.RequestedClass != j.Class {
			v.RequestedClass = j.RequestedClass.String()
		}
	}
	return v
}

// errorView is every error reply's body. Names, a key present even when
// empty, is set by the metrics query alone, on a request that names no series.
type errorView struct {
	Error string    `json:"error"`
	Names *[]string `json:"names,omitempty"`
}

// statusView is every success reply that carries no record: the liveness
// check's, a closed session's, a cancel's and a low-level op's.
type statusView struct {
	Status string `json:"status"`
}

// maxAlso bounds the jobs one status request can name beside its own; memoSize,
// those and its own, bounds each of the two lists Client keeps to name them.
const maxAlso, memoSize = 31, 32

// submitBody is the POST /api/v1/jobs request, as the handler decodes it and
// as Client.TaskStart encodes it.
type submitBody struct {
	Class              string          `json:"class"`
	DeadlineSeconds    float64         `json:"deadline_seconds,omitempty"`
	Device             string          `json:"device"`
	ExpectedQPUSeconds float64         `json:"expected_qpu_seconds,omitempty"`
	Pattern            string          `json:"pattern"`
	Program            json.RawMessage `json:"program"`
	Source             string          `json:"source,omitempty"`
}

// deviceView is one partition of GET /api/v1/devices; Cache is nil, and
// absent, when program caching is off.
type deviceView struct {
	Cache       *CacheStats        `json:"cache,omitempty"`
	Calibration device.Calibration `json:"calibration"`
	ID          string             `json:"id"`
	Queued      map[string]int     `json:"queued"`
	Spec        qir.DeviceSpec     `json:"spec"`
	Status      device.Status      `json:"status"`
	Utilization float64            `json:"utilization"`
}

type devicesView struct {
	Devices []deviceView `json:"devices"`
	Router  string       `json:"router"`
}

// queryView is the GET /api/v1/metrics/query reply.
type queryView struct {
	Labels telemetry.Labels `json:"labels"`
	Name   string           `json:"name"`
	Points []pointView      `json:"points"`
}

type pointView struct {
	AtSeconds float64 `json:"at_seconds"`
	Value     float64 `json:"value"`
}

// traceListView is the GET /api/v1/trace reply: the flight recorder's
// counts, every trace it holds and each partition's occupancy track.
type traceListView struct {
	Done      int                     `json:"done"`
	Jobs      []trace.JobTrace        `json:"jobs"`
	Live      int                     `json:"live"`
	Occupancy map[string][]trace.Span `json:"occupancy"`
}
