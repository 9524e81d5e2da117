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

	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// Handler returns the daemon's REST API:
//
//	POST   /api/v1/sessions                 open session {user}
//	DELETE /api/v1/sessions                 close session (token auth)
//	GET    /api/v1/devices                  fleet partition listing (token auth)
//	POST   /api/v1/jobs                     submit {program, class, pattern, device}
//	                                        (400 a bad request: body, class, pattern,
//	                                        unknown partition, negative hint; 422 a
//	                                        program it cannot decode or no partition
//	                                        runs; 429 shed at the door)
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
		writeJSON(w, http.StatusOK, statusView{"ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if d.cfg.Registry == nil {
			http.Error(w, "telemetry disabled", http.StatusNotFound)
			return
		}
		buf := bodies.Get().(*bytes.Buffer)
		defer bodies.Put(buf)
		buf.Reset()
		d.inWorld(func() { d.cfg.Registry.WriteText(buf) })
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write(buf.Bytes())
	})

	mux.HandleFunc("POST /api/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			User string `json:"user"`
		}
		if err := readBody(w, r, &req); err != nil {
			writeErr(w, bodyErrCode(err), err)
			return
		}
		var s Session
		var err error
		d.inWorld(func() {
			var sess *Session
			if sess, err = d.OpenSession(req.User); err == nil {
				s = *sess
			}
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, &s)
	})
	mux.HandleFunc("DELETE /api/v1/sessions", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		var err error
		if !d.inSession(w, token, func() { err = d.CloseSession(token) }) {
			return
		}
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, statusView{"closed"})
	}))
	mux.HandleFunc("GET /api/v1/devices", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		out := devicesView{Devices: make([]deviceView, len(d.fleet)), Router: d.RouterName()}
		if !d.inSession(w, token, func() {
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
		}) {
			return
		}
		writeJSON(w, http.StatusOK, out)
	}))
	mux.HandleFunc("POST /api/v1/jobs", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		// The request is read before the world is entered, and a bad one is
		// answered only once the session checks out: an unknown session's
		// 401 comes first.
		req, code, bad := readSubmit(w, r)
		var j Job
		var err error
		if !d.inSession(w, token, func() {
			if bad == nil {
				j, err = d.Submit(token, req)
			}
		}) {
			return
		}
		var rej *RejectedError
		var reqErr requestError
		switch {
		case bad != nil:
			writeErr(w, code, bad)
		case errors.As(err, &reqErr):
			writeErr(w, http.StatusBadRequest, err)
		case errors.As(err, &rej):
			// The admission stage shed the job: 429 Too Many Requests, with
			// the terminal rejected record so the caller can see the policy
			// rationale and query the job later. The standard Retry-After
			// header carries the queue-drain backoff hint (integer seconds,
			// rounded up per RFC 9110).
			out := newJobView(&rej.Job)
			out.Error = &rej.Reason
			if rej.Job.RetryAfterSeconds > 0 {
				w.Header().Set("Retry-After",
					strconv.FormatInt(int64(math.Ceil(rej.Job.RetryAfterSeconds)), 10))
			}
			writeJSON(w, http.StatusTooManyRequests, out)
		case err != nil:
			writeErr(w, http.StatusUnprocessableEntity, err)
		default:
			writeJSON(w, http.StatusAccepted, newJobView(&j))
		}
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		also := r.URL.Query()["also"]
		var jobs []Job
		var err error
		if !d.inSession(w, token, func() {
			if len(also) <= maxAlso {
				jobs, err = d.jobStatusResults(token, r.PathValue("id"), also)
			}
		}) {
			return
		}
		if len(also) > maxAlso {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("daemon: at most %d also parameters", maxAlso))
			return
		}
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
		var res []byte
		var err error
		if !d.inSession(w, token, func() { res, err = d.JobResult(token, r.PathValue("id")) }) {
			return
		}
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
		var err error
		if !d.inSession(w, token, func() { err = d.CancelJob(token, r.PathValue("id"), false) }) {
			return
		}
		if err != nil {
			code := http.StatusConflict // already terminal
			if errors.Is(err, ErrUnknownJob) {
				code = http.StatusNotFound
			}
			writeErr(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, statusView{"cancelled"})
	}))

	// The flight recorder is a listener inside the world: a reply is copied
	// out of it in the hold that checks the session, and encoded outside.
	mux.HandleFunc("GET /api/v1/trace", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		var v traceListView
		if !d.inFlight(w, token, func() {
			v.Live, v.Done = d.flight.Len()
			v.Jobs, v.Occupancy = d.flight.Jobs(), d.flight.Occupancy()
		}) {
			return
		}
		writeJSON(w, http.StatusOK, v)
	}))
	mux.HandleFunc("GET /api/v1/trace/{id}", d.withSession(func(token string, w http.ResponseWriter, r *http.Request) {
		var t trace.JobTrace
		var ok bool
		if !d.inFlight(w, token, func() { t, ok = d.flight.Job(r.PathValue("id")) }) {
			return
		}
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (evicted or unknown)", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, t)
	}))
	mux.HandleFunc("GET /api/v1/metrics/query", d.handleMetricsQuery)

	mux.HandleFunc("GET /admin/v1/status", d.withAdmin(func(w http.ResponseWriter, r *http.Request) {
		var rep StatusReport
		d.inWorld(func() { rep = d.AdminStatus() })
		writeJSON(w, http.StatusOK, rep)
	}))
	mux.HandleFunc("GET /admin/v1/jobs", d.withAdmin(func(w http.ResponseWriter, r *http.Request) {
		var jobs []*Job
		d.inWorld(func() { jobs = d.ListJobs() })
		out := make([]jobView, len(jobs))
		for i, j := range jobs {
			out[i] = newJobView(j)
		}
		writeJSON(w, http.StatusOK, out)
	}))
	mux.HandleFunc("POST /admin/v1/lowlevel/{op}", d.withAdmin(func(w http.ResponseWriter, r *http.Request) {
		var msg string
		var err error
		d.inWorld(func() {
			if dev := r.URL.Query().Get("device"); dev != "" {
				msg, err = d.LowLevelOpDevice(r.PathValue("op"), dev)
			} else {
				msg, err = d.LowLevelOp(r.PathValue("op"))
			}
		})
		if err != nil {
			writeErr(w, http.StatusForbidden, err)
			return
		}
		writeJSON(w, http.StatusOK, statusView{msg})
	}))
	return mux
}

// inWorld runs fn inside the simulated world: under the clock's lock, taken
// once for fn and released even if fn panics.
func (d *Daemon) inWorld(fn func()) {
	d.cfg.Clock.Lock()
	defer d.cfg.Clock.Unlock()
	fn()
}

// inSession runs fn inside the world in the same hold that checks the
// session token; a token that names no session answers 401 and fn does not
// run. It reports whether fn ran.
func (d *Daemon) inSession(w http.ResponseWriter, token string, fn func()) bool {
	var err error
	d.inWorld(func() {
		if _, err = d.session(token); err == nil {
			fn()
		}
	})
	if err != nil {
		writeErr(w, http.StatusUnauthorized, err)
		return false
	}
	return true
}

// inFlight is inSession for a flight-recorder read: fn runs only when the
// daemon has a recorder, and without one the request answers 404.
func (d *Daemon) inFlight(w http.ResponseWriter, token string, fn func()) bool {
	if !d.inSession(w, token, func() {
		if d.flight != nil {
			fn()
		}
	}) {
		return false
	}
	if d.flight == nil {
		writeErr(w, http.StatusNotFound, errors.New("flight recorder disabled"))
		return false
	}
	return true
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
		var names []string
		d.inWorld(func() { names = db.SeriesNames() })
		writeJSON(w, http.StatusBadRequest, errorView{Error: "missing name parameter", Names: &names})
		return
	}
	from, err := parseSimTime(q.Get("from"), 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
		return
	}
	toNow := q.Get("to") == ""
	to, err := parseSimTime(q.Get("to"), 0)
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
	var kind telemetry.AggregateKind
	if window > 0 {
		if kind, err = parseAgg(q.Get("agg")); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else if q.Get("agg") != "" {
		writeErr(w, http.StatusBadRequest, errors.New("agg requires window"))
		return
	}
	var points []telemetry.Point
	d.inWorld(func() {
		if toNow {
			to = d.cfg.Clock.Now()
		}
		points = db.Downsample(name, labels, from, to, window, kind) // a zero window is Query
	})
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

// withSession hands next the bearer session token; next checks it inside
// the world (inSession), in the hold that serves the request.
func (d *Daemon) withSession(next func(token string, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok {
			writeErr(w, http.StatusUnauthorized, errors.New("missing bearer token"))
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

// maxBodyBytes caps a request body. Program payloads are pulse schedules of
// kilobytes; a megabyte is room to spare and still nothing a flood of
// oversized posts can turn into memory pressure.
const maxBodyBytes = 1 << 20

// readBody decodes a JSON request body of at most maxBodyBytes into v.
func readBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
}

// bodyErrCode is the status that answers readBody's error: 413 for a body
// over the cap, 400 for a malformed one.
func bodyErrCode(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readSubmit reads a POST /api/v1/jobs request; on failure it returns why and
// the status that answers it.
func readSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, int, error) {
	var req submitBody
	if err := readBody(w, r, &req); err != nil {
		return SubmitRequest{}, bodyErrCode(err), err
	}
	class, err := sched.ParseClass(cmp.Or(req.Class, "dev"))
	if err != nil {
		return SubmitRequest{}, http.StatusBadRequest, err
	}
	pattern, err := sched.ParsePattern(req.Pattern)
	if err != nil {
		return SubmitRequest{}, http.StatusBadRequest, err
	}
	return SubmitRequest{
		Program: req.Program, Class: class, Pattern: pattern,
		Source: req.Source, Device: req.Device,
		ExpectedQPUSeconds: req.ExpectedQPUSeconds,
		DeadlineSeconds:    req.DeadlineSeconds,
	}, 0, nil
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
	writeJSON(w, code, errorView{Error: err.Error()})
}
