package daemon

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/telemetry"
)

// Handler returns the daemon's REST API:
//
//	POST   /api/v1/sessions                 open session {user}
//	DELETE /api/v1/sessions                 close session (token auth)
//	GET    /api/v1/devices                  fleet partition listing (token auth)
//	POST   /api/v1/jobs                     submit {program, class, pattern, device}
//	GET    /api/v1/jobs/{id}                job status; a completed job's reply
//	                                        carries its result as "result"; ≤ 31 ?also=<id>
//	                                        (more: 400) add "also": those the session sees, likewise
//	GET    /api/v1/jobs/{id}/result         job result, for callers that skipped
//	                                        the status poll (409 not ready yet, 422
//	                                        never will be, 404 unknown or evicted ID)
//	DELETE /api/v1/jobs/{id}                cancel (409 already terminal, 404 as above)
//	GET    /api/v1/trace                    flight-recorder listing (token auth)
//	GET    /api/v1/trace/{id}               one job's trace (token auth)
//	GET    /metrics                         Prometheus exposition (public)
//	GET    /api/v1/metrics/query            TSDB range query (public):
//	                                        ?name=...&from=...&to=...[&window=...&agg=...];
//	                                        other params select label values
//	GET    /healthz                         liveness (public)
//	GET    /admin/v1/status                 admin overview (admin token)
//	GET    /admin/v1/jobs                   all jobs (admin token)
//	POST   /admin/v1/lowlevel/{op}          gated low-level control (admin token);
//	                                        ?device=ID targets one partition
//
// User endpoints authenticate with "Authorization: Bearer <session token>";
// admin endpoints with the configured admin token.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if d.cfg.Registry == nil {
			http.Error(w, "telemetry disabled", http.StatusNotFound)
			return
		}
		buf := bodies.Get().(*bytes.Buffer)
		defer bodies.Put(buf)
		buf.Reset()
		d.cfg.Registry.WriteText(buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write(buf.Bytes())
	})

	mux.HandleFunc("POST /api/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			User string `json:"user"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		s, err := d.OpenSession(req.User)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, s)
	})
	mux.HandleFunc("DELETE /api/v1/sessions", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		if err := d.CloseSession(token); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
	}))
	mux.HandleFunc("GET /api/v1/devices", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		out := devicesView{Devices: make([]deviceView, len(d.fleet)), Router: d.RouterName()}
		for i, ds := range d.fleet {
			out.Devices[i] = deviceView{
				Cache:       ds.cache.stats(),
				Calibration: ds.dev.CalibrationSnapshot(),
				ID:          ds.id,
				Queued:      queueLens(ds.queue),
				Spec:        ds.dev.Spec(),
				Status:      ds.dev.Status(),
				Utilization: ds.dev.Utilization(),
			}
		}
		writeJSON(w, http.StatusOK, out)
	}))
	mux.HandleFunc("POST /api/v1/jobs", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		var req submitBody
		if !decodeBody(w, r, &req) {
			return
		}
		class, err := sched.ParseClass(cmp.Or(req.Class, "dev"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		pattern, err := sched.ParsePattern(req.Pattern)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		j, err := d.Submit(token, SubmitRequest{
			Program: req.Program, Class: class, Pattern: pattern,
			Source: req.Source, Device: req.Device,
			ExpectedQPUSeconds: req.ExpectedQPUSeconds,
			DeadlineSeconds:    req.DeadlineSeconds,
		})
		if err != nil {
			var rej *RejectedError
			if errors.As(err, &rej) {
				// The admission stage shed the job: 429 Too Many Requests,
				// with the terminal rejected record so the caller can see
				// the policy rationale and query the job later. The standard
				// Retry-After header carries the queue-drain backoff hint
				// (integer seconds, rounded up per RFC 9110).
				out := newJobView(&rej.Job)
				out.Error = &rej.Reason
				if rej.Job.RetryAfterSeconds > 0 {
					w.Header().Set("Retry-After",
						strconv.FormatInt(int64(math.Ceil(rej.Job.RetryAfterSeconds)), 10))
				}
				writeJSON(w, http.StatusTooManyRequests, out)
				return
			}
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusAccepted, newJobView(&j))
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		also := r.URL.Query()["also"]
		if len(also) > maxAlso {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("daemon: at most %d also parameters", maxAlso))
			return
		}
		jobs, err := d.jobStatusResults(token, r.PathValue("id"), also)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		views := make([]jobView, len(jobs))
		for i := range jobs {
			views[i] = newJobView(&jobs[i])
			views[i].Result = jobs[i].result
		}
		views[0].Also = views[1:]
		writeJSON(w, http.StatusOK, &views[0])
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		res, err := d.JobResult(token, r.PathValue("id"))
		switch {
		case err == nil:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(res)
		case errors.Is(err, qrmi.ErrResultNotReady):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrUnknownJob):
			writeErr(w, http.StatusNotFound, err)
		default:
			writeErr(w, http.StatusUnprocessableEntity, err)
		}
	}))
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		if err := d.CancelJob(token, r.PathValue("id"), false); err != nil {
			code := http.StatusConflict // already terminal
			if errors.Is(err, ErrUnknownJob) {
				code = http.StatusNotFound
			}
			writeErr(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
	}))

	mux.HandleFunc("GET /api/v1/trace", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		if d.flight == nil {
			writeErr(w, http.StatusNotFound, errors.New("flight recorder disabled"))
			return
		}
		live, done := d.flight.Len()
		writeJSON(w, http.StatusOK, map[string]any{
			"live":      live,
			"done":      done,
			"jobs":      d.flight.Jobs(),
			"occupancy": d.flight.Occupancy(),
		})
	}))
	mux.HandleFunc("GET /api/v1/trace/{id}", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		if d.flight == nil {
			writeErr(w, http.StatusNotFound, errors.New("flight recorder disabled"))
			return
		}
		t, ok := d.flight.Job(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (evicted or unknown)", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, t)
	}))
	mux.HandleFunc("GET /api/v1/metrics/query", d.handleMetricsQuery)

	mux.HandleFunc("GET /admin/v1/status", d.withAdmin(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.AdminStatus())
	}))
	mux.HandleFunc("GET /admin/v1/jobs", d.withAdmin(func(w http.ResponseWriter, r *http.Request) {
		jobs := d.ListJobs()
		out := make([]jobView, len(jobs))
		for i, j := range jobs {
			out[i] = newJobView(j)
		}
		writeJSON(w, http.StatusOK, out)
	}))
	mux.HandleFunc("POST /admin/v1/lowlevel/{op}", d.withAdmin(func(w http.ResponseWriter, r *http.Request) {
		var msg string
		var err error
		if dev := r.URL.Query().Get("device"); dev != "" {
			msg, err = d.LowLevelOpDevice(r.PathValue("op"), dev)
		} else {
			msg, err = d.LowLevelOp(r.PathValue("op"))
		}
		if err != nil {
			writeErr(w, http.StatusForbidden, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": msg})
	}))
	return mux
}

// handleMetricsQuery is the TSDB range-query endpoint — the first external
// window into the in-memory time-series store. Query parameters:
//
//	name     series name (required; see "names" in the error response)
//	from,to  range bounds as Go durations ("30m") or plain seconds; from
//	         defaults to 0, to defaults to the current simulation time
//	window   optional downsampling window (same formats); requires agg
//	agg      reduction for window ("mean", "max", "min", "last", "count")
//
// Every other parameter selects a label value (e.g. &class=production).
// Timestamps in the response are simulation-time seconds.
func (d *Daemon) handleMetricsQuery(w http.ResponseWriter, r *http.Request) {
	db := d.cfg.TSDB
	if db == nil {
		writeErr(w, http.StatusNotFound, errors.New("tsdb disabled"))
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "missing name parameter",
			"names": db.SeriesNames(),
		})
		return
	}
	from, err := parseSimTime(q.Get("from"), 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
		return
	}
	to, err := parseSimTime(q.Get("to"), d.cfg.Clock.Now())
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad to: %w", err))
		return
	}
	window, err := parseSimTime(q.Get("window"), 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad window: %w", err))
		return
	}
	labels := telemetry.Labels{}
	for k, vs := range q {
		switch k {
		case "name", "from", "to", "window", "agg":
			continue
		}
		if len(vs) > 0 {
			labels[k] = vs[0]
		}
	}
	var points []telemetry.Point
	if window > 0 {
		kind, err := parseAgg(q.Get("agg"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		points = db.Downsample(name, labels, from, to, window, kind)
	} else if q.Get("agg") != "" {
		writeErr(w, http.StatusBadRequest, errors.New("agg requires window"))
		return
	} else {
		points = db.Query(name, labels, from, to)
	}
	out := queryView{Labels: labels, Name: name, Points: make([]pointView, len(points))}
	for i, p := range points {
		out.Points[i] = pointView{AtSeconds: p.At.Seconds(), Value: p.Value}
	}
	writeJSON(w, http.StatusOK, out)
}

// parseSimTime accepts a Go duration string ("90m") or plain seconds ("5400")
// as a simulation-time offset: finite, not negative, and within a
// time.Duration.
func parseSimTime(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		secs, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("%q is neither a duration nor seconds", s)
		}
		// NaN fails both comparisons.
		if !(secs >= 0 && secs*float64(time.Second) < math.MaxInt64) {
			return 0, fmt.Errorf("%q is not a time from 0 to %s", s, time.Duration(math.MaxInt64))
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d < 0 {
		return 0, fmt.Errorf("%q is negative", s)
	}
	return d, nil
}

func parseAgg(s string) (telemetry.AggregateKind, error) {
	switch s {
	case "mean", "":
		return telemetry.AggMean, nil
	case "max":
		return telemetry.AggMax, nil
	case "min":
		return telemetry.AggMin, nil
	case "last":
		return telemetry.AggLast, nil
	case "count":
		return telemetry.AggCount, nil
	default:
		return 0, fmt.Errorf("unknown agg %q (mean, max, min, last, count)", s)
	}
}

// withSession authenticates the bearer session token.
func (d *Daemon) withSession(next func(token string, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok {
			writeErr(w, http.StatusUnauthorized, errors.New("missing bearer token"))
			return
		}
		if _, err := d.session(token); err != nil {
			writeErr(w, http.StatusUnauthorized, err)
			return
		}
		next(token, w, r)
	}
}

// withAdmin authenticates the admin token.
func (d *Daemon) withAdmin(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !d.AdminAuthorized(token) {
			writeErr(w, http.StatusForbidden, errors.New("admin token required"))
			return
		}
		next(w, r)
	}
}

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

// maxBodyBytes caps a request body. Program payloads are pulse schedules of
// kilobytes; a megabyte is room to spare and still nothing a flood of
// oversized posts can turn into memory pressure.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes into v,
// answering 413 for a larger one and 400 for a malformed one. It reports
// whether the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, err)
	return false
}

// bodies recycles the buffers writeJSON encodes into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers code with v as one line of JSON. The body is encoded
// before the status line goes out, so a value that cannot be encoded (a NaN
// gauge, say) answers 500 and says why instead of a bare status with an empty
// body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "daemon: encoding the reply: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client went away; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
