package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// The wire goldens pin reply bodies byte for byte. They were recorded from
// the map[string]any encoders (keys in sorted order, conditional keys absent)
// before the typed views replaced them, so a view that reorders a key, drops
// an omit rule or formats a number differently shows up as a diff. Do not
// re-record them to make a change pass; `-update` is for adding a case, as
// the result-carrying status reply at the end of job_wire.golden was.

// wireEnv is a 2-partition TimingOnly fleet behind Handler(), driven on a
// manual clock and without a network: every body is a function of the script.
type wireEnv struct {
	t     *testing.T
	clk   *simclock.Clock
	d     *Daemon
	h     http.Handler
	token string
	out   strings.Builder
}

func newWireEnv(t *testing.T, pol admission.Policy, programCache int) *wireEnv {
	t.Helper()
	clk := simclock.New()
	reg, db := telemetry.NewRegistry(), telemetry.NewTSDB(24*time.Hour, 0)
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 31, Registry: reg, TSDB: db, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Router: NewRoundRobinRouter(), Clock: clk, Admission: pol,
		AdminToken: "admin", EnablePreemption: true, ProgramCache: programCache,
		Registry: reg, TSDB: db, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	return &wireEnv{t: t, clk: clk, d: d, h: d.Handler(), token: s.Token}
}

// record serves one request in-process, as the session (or the admin, under
// /admin/), appends "## label: METHOD path -> code" and the body to the
// transcript and returns the body.
func (e *wireEnv) record(label, method, path, body string) string {
	e.t.Helper()
	token := e.token
	if strings.HasPrefix(path, "/admin/") {
		token = "admin"
	}
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	e.h.ServeHTTP(rec, req)
	fmt.Fprintf(&e.out, "## %s: %s %s -> %d\n%s", label, method, path, rec.Code, rec.Body)
	return rec.Body.String()
}

// submit records one POST /api/v1/jobs and returns the job ID of the reply.
func (e *wireEnv) submit(label, fields string, shots int) string {
	e.t.Helper()
	out := e.record(label, http.MethodPost, "/api/v1/jobs",
		`{"program":`+string(payload(e.t, shots))+fields+`}`)
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &j); err != nil || j.ID == "" {
		e.t.Fatalf("%s: no job ID in %q (%v)", label, out, err)
	}
	return j.ID
}

// encoded is the body writeJSON sends for v.
func encoded(v any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.String()
}

// wireRecords is one record per shape a job body can take: every state, and
// every conditional key both present and absent.
func wireRecords() []struct {
	name string
	job  Job
} {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return []struct {
		name string
		job  Job
	}{
		{"queued, bare, empty source", Job{ID: "job-1", User: "alice", Class: sched.ClassDev, RequestedClass: sched.ClassDev,
			State: JobQueued}},
		{"queued, deadline and pattern", Job{ID: "job-2", User: "bob", Class: sched.ClassTest, RequestedClass: sched.ClassTest,
			State: JobQueued, Source: "slurm", Pattern: sched.PatternQCHeavy, SubmittedAt: sec(1.5),
			ExpectedQPUSeconds: 12.25, DeadlineSeconds: 3600}},
		{"running", Job{ID: "job-3", User: "alice", Class: sched.ClassProduction, RequestedClass: sched.ClassProduction,
			State: JobRunning, Source: "cloud", Device: "analog-qpu-p1", Pinned: true, Cache: "hit", DeviceTask: "task-9",
			SubmittedAt: sec(10), StartedAt: sec(12.125), ExpectedQPUSeconds: 30}},
		{"completed, preempted twice", Job{ID: "job-4", User: "alice", Class: sched.ClassDev, RequestedClass: sched.ClassDev,
			State: JobCompleted, Source: "slurm", Device: "analog-qpu-p0", SubmittedAt: sec(3), StartedAt: sec(40),
			FinishedAt: sec(71.5), Preemptions: 2, ExpectedQPUSeconds: 31.5, DeadlineSeconds: 0.5,
			result: []byte(`{"counts":{}}`)}},
		{"failed, error needs escaping", Job{ID: "job-5", User: "eve<script>", Class: sched.ClassTest, RequestedClass: sched.ClassTest,
			State: JobFailed, Source: "slurm", Device: "analog-qpu", SubmittedAt: sec(1), StartedAt: sec(2), FinishedAt: sec(2),
			ExpectedQPUSeconds: 1e-7, Error: `device: "analog-qpu" is analog-only & <degraded>`}},
		{"cancelled while queued", Job{ID: "job-6", User: "alice", Class: sched.ClassDev, RequestedClass: sched.ClassDev,
			State: JobCancelled, Source: "slurm", Device: "analog-qpu-p1", SubmittedAt: sec(5), FinishedAt: sec(6),
			ExpectedQPUSeconds: 1e21}},
		{"rejected, retry hint", Job{ID: "job-7", User: "alice", Class: sched.ClassDev, RequestedClass: sched.ClassDev,
			State: JobRejected, Source: "slurm", SubmittedAt: sec(7), FinishedAt: sec(7), ExpectedQPUSeconds: 600,
			AdmissionOutcome: "rejected", AdmissionReason: "token-bucket: dev quota exhausted", RetryAfterSeconds: 1200.5}},
		{"down-classed", Job{ID: "job-8", User: "alice", Class: sched.ClassDev, RequestedClass: sched.ClassTest,
			State: JobQueued, Source: "slurm", Device: "analog-qpu-p0", SubmittedAt: sec(8), ExpectedQPUSeconds: 4,
			AdmissionOutcome: "downgraded", AdmissionReason: "slo-guard: wait p99 over target"}},
		{"admission outcome, empty reason", Job{ID: "job-9", User: "alice", Class: sched.ClassDev, RequestedClass: sched.ClassDev,
			State: JobRejected, Source: "slurm", FinishedAt: sec(0.001), AdmissionOutcome: "rejected"}},
	}
}

// TestJobWireGolden holds every job body — the synthetic table through the
// encoder, then a scripted run through Handler() covering the 202, the 429
// with its overridden error, status replies and the admin listing — to the
// bytes the map encoder produced.
func TestJobWireGolden(t *testing.T) {
	e := newWireEnv(t, threeShotBucket(), 8)
	for _, r := range wireRecords() {
		fmt.Fprintf(&e.out, "## record: %s\n%s", r.name, encoded(newJobView(&r.job)))
	}
	rejected := wireRecords()[6].job
	for _, reason := range []string{"token-bucket: dev quota exhausted", ""} {
		body := newJobView(&rejected)
		body.Error = &reason
		fmt.Fprintf(&e.out, "## record: 429 body, reason %q\n%s", reason, encoded(body))
	}
	fmt.Fprintf(&e.out, "## record: empty listing\n%s", encoded([]jobView{}))

	// One submit per simulated second: the admin listing sorts by submit time.
	a := e.submit("202 dispatched", `,"class":"dev","pattern":"qc-heavy","expected_qpu_seconds":90.5,"deadline_seconds":7200`, 20)
	e.clk.Advance(time.Second)
	b := e.submit("202 pinned, cloud source", `,"class":"dev","source":"cloud","device":"`+e.d.deviceIDs()[0]+`"`, 21)
	e.clk.Advance(time.Second)
	c := e.submit("202 queued behind the pin", `,"class":"dev","device":"`+e.d.deviceIDs()[0]+`"`, 22)
	e.clk.Advance(time.Second)
	d := e.submit("429 shed", `,"class":"dev"`, 23)
	e.clk.Advance(time.Second)
	p := e.submit("202 production preempts", `,"class":"production","device":"`+e.d.deviceIDs()[0]+`"`, 24)
	e.clk.Advance(time.Second)
	e.record("status, preempted and requeued across partitions", http.MethodGet, "/api/v1/jobs/"+a, "")
	e.record("status, running", http.MethodGet, "/api/v1/jobs/"+p, "")
	e.record("status, queued", http.MethodGet, "/api/v1/jobs/"+b, "")
	e.record("status, rejected", http.MethodGet, "/api/v1/jobs/"+d, "")
	e.record("cancel", http.MethodDelete, "/api/v1/jobs/"+c, "")
	e.record("status, cancelled", http.MethodGet, "/api/v1/jobs/"+c, "")
	e.record("status, unknown", http.MethodGet, "/api/v1/jobs/job-404", "")
	for step := 0; step < 60; step++ {
		e.clk.Advance(5 * time.Second)
	}
	e.record("admin listing, drained", http.MethodGet, "/admin/v1/jobs", "")
	// Recorded from the views: the one body that differs from the map form.
	e.record("status, completed, carries the result", http.MethodGet, "/api/v1/jobs/"+a, "")
	e.record("result, the same bytes", http.MethodGet, "/api/v1/jobs/"+a+"/result", "")

	// Recorded when ?also= was added; every body above was left as it was
	// (the result body ends without a newline, hence the one written here).
	e.out.WriteString("\n")
	// One more job of the session's, still running; one of another session's;
	// and the oldest finished record (c, cancelled) evicted the way
	// Config.History does it.
	running, err := e.d.Submit(e.token, SubmitRequest{Program: payload(t, 25), Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	bob, _ := e.d.OpenSession("bob")
	foreign, err := e.d.Submit(bob.Token, SubmitRequest{Program: payload(t, 26), Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	e.d.mu.Lock()
	e.d.evictLocked(&e.d.finished, e.d.finished.len()-1, false)
	e.d.mu.Unlock()
	e.record("status, evicted", http.MethodGet, "/api/v1/jobs/"+c, "")
	e.record("status, also: completed, running, another session's, evicted, never minted, rejected", http.MethodGet,
		"/api/v1/jobs/"+p+"?also="+a+"&also="+running.ID+"&also="+foreign.ID+"&also="+c+"&also=job-404&also="+d, "")
	e.record("status, also names the job itself and another twice", http.MethodGet,
		"/api/v1/jobs/"+d+"?also="+d+"&also="+running.ID+"&also="+running.ID, "")
	e.record("status, also sees nothing", http.MethodGet, "/api/v1/jobs/"+d+"?also="+foreign.ID+"&also=", "")
	e.record("status, unknown, also ignored", http.MethodGet, "/api/v1/jobs/"+c+"?also="+a, "")
	e.record("status, 32 also", http.MethodGet, "/api/v1/jobs/"+d+strings.Replace(strings.Repeat("&also="+a, maxAlso+1), "&", "?", 1), "")
	checkGolden(t, "job_wire.golden", e.out.String())
}

// TestReadWireGolden pins the two other hot read replies: the fleet listing
// (with and without the program-cache block, busy and drained) and the TSDB
// range query (raw, downsampled, empty).
func TestReadWireGolden(t *testing.T) {
	bare := newWireEnv(t, nil, 0)
	bare.record("devices, no program cache", http.MethodGet, "/api/v1/devices", "")

	e := newWireEnv(t, nil, 8)
	for i, class := range []sched.Class{sched.ClassDev, sched.ClassTest, sched.ClassDev,
		sched.ClassProduction, sched.ClassTest, sched.ClassDev} {
		if _, err := e.d.Submit(e.token, SubmitRequest{Program: payload(t, 10+i%2), Class: class}); err != nil {
			t.Fatal(err)
		}
		e.clk.Advance(time.Second)
	}
	e.record("devices, busy", http.MethodGet, "/api/v1/devices", "")
	for step := 0; step < 40; step++ {
		e.clk.Advance(5 * time.Second)
	}
	e.record("devices, drained", http.MethodGet, "/api/v1/devices", "")
	e.record("query, raw", http.MethodGet, "/api/v1/metrics/query?name=daemon_queue_length&class=dev", "")
	e.record("query, two labels, bounded", http.MethodGet,
		"/api/v1/metrics/query?name=daemon_device_queue_length&class=test&device="+e.d.deviceIDs()[1]+"&from=2&to=30s", "")
	e.record("query, downsampled", http.MethodGet,
		"/api/v1/metrics/query?name=daemon_queue_length&class=dev&window=10s&agg=max", "")
	e.record("query, no such series", http.MethodGet, "/api/v1/metrics/query?name=daemon_queue_length&class=none", "")
	e.record("query, missing name", http.MethodGet, "/api/v1/metrics/query", "")
	// Appended, and recorded before the devices listing stopped building the
	// per-device maps it shares queue depths with; every body above was left
	// as it was.
	e.record("admin status, drained", http.MethodGet, "/admin/v1/status", "")
	checkGolden(t, "read_wire.golden", bare.out.String()+e.out.String())
}

// discardResponse is a ResponseWriter that keeps nothing, so the benchmark
// below measures the encode and not a recorder.
type discardResponse struct{ h http.Header }

func (w discardResponse) Header() http.Header         { return w.h }
func (w discardResponse) WriteHeader(int)             {}
func (w discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkJobWireEncode is the reply every served job ends with: the status
// body of a completed job, result included, from record to bytes.
func BenchmarkJobWireEncode(b *testing.B) {
	job := wireRecords()[3].job
	w := discardResponse{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := newJobView(&job)
		out.Result = job.result
		writeJSON(w, http.StatusOK, out)
	}
}
