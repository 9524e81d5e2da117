package daemon

import (
	"encoding/json"
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
	"hpcqc/internal/trace"
)

// tracedEnv is a single-partition daemon with a span sink and flight
// recorder attached — every test below reads the emitted span stream
// directly instead of polling job state.
type tracedEnv struct {
	clk    *simclock.Clock
	d      *Daemon
	spans  *[]trace.Span
	flight *trace.FlightRecorder
}

func newTracedEnv(t *testing.T, admitter admission.Policy) *tracedEnv {
	t.Helper()
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spans := &[]trace.Span{}
	flight := trace.NewFlightRecorder(8)
	d, err := NewDaemon(Config{
		Devices:          []*device.Device{dev},
		Clock:            clk,
		AdminToken:       "admin-secret",
		EnablePreemption: true,
		Admission:        admitter,
		SpanListener:     func(s trace.Span) { *spans = append(*spans, s) },
		Flight:           flight,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &tracedEnv{clk: clk, d: d, spans: spans, flight: flight}
}

// jobStages extracts the ordered stage sequence of one job's spans.
func jobStages(spans []trace.Span, jobID string) []trace.Stage {
	var out []trace.Stage
	for _, s := range spans {
		if s.Job == jobID {
			out = append(out, s.Stage)
		}
	}
	return out
}

func stagesEqual(got, want []trace.Stage) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestTraceLifecycleSpans pins the full happy-path span sequence of one job,
// the policy annotations riding on the pipeline spans, and the flight
// recorder's agreement with the listener stream.
func TestTraceLifecycleSpans(t *testing.T) {
	env := newTracedEnv(t, nil)
	s, _ := env.d.OpenSession("alice")
	j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction})
	if err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(30 * time.Second)
	if got, _ := env.d.JobStatus(s.Token, j.ID); got.State != JobCompleted {
		t.Fatalf("job = %s, want completed", got.State)
	}

	// The busy span is the device occupancy track's view of the same run; it
	// carries the occupant's job ID, so it shows up in the job's stream too,
	// closed just before the execute span at completion.
	want := []trace.Stage{
		trace.StageValidate, trace.StageAdmission, trace.StageRoute,
		trace.StageQueued, trace.StageDispatch,
		trace.StageBusy, trace.StageExecute, trace.MarkCompleted,
	}
	if got := jobStages(*env.spans, j.ID); !stagesEqual(got, want) {
		t.Fatalf("stage sequence = %v, want %v", got, want)
	}
	for _, sp := range *env.spans {
		if sp.Job != j.ID {
			continue
		}
		switch sp.Stage {
		case trace.StageAdmission:
			if sp.Detail != "accept-all accepted" {
				t.Errorf("admission detail = %q", sp.Detail)
			}
		case trace.StageRoute, trace.StageQueued, trace.StageExecute:
			if sp.Device == "" {
				t.Errorf("%s span has no device", sp.Stage)
			}
		}
		if sp.Class != "production" {
			t.Errorf("%s span class = %q", sp.Stage, sp.Class)
		}
		if sp.End < sp.Start {
			t.Errorf("%s span ends before it starts (%s < %s)", sp.Stage, sp.End, sp.Start)
		}
	}

	// The flight recorder holds the identical trace, marked terminal — minus
	// the busy span, which it files under the device's occupancy track.
	rec, ok := env.flight.Job(j.ID)
	if !ok {
		t.Fatal("flight recorder lost the trace")
	}
	if rec.State != trace.MarkCompleted || len(rec.Spans) != len(want)-1 {
		t.Fatalf("recorded trace state=%s spans=%d, want %s/%d", rec.State, len(rec.Spans), trace.MarkCompleted, len(want)-1)
	}
}

// shedAll rejects every submission — the deterministic rejected-path driver.
type shedAll struct{}

func (shedAll) Name() string { return "shed-all" }
func (shedAll) Admit(req admission.Request, _ admission.View) admission.Decision {
	return admission.Decision{Outcome: admission.Rejected, Class: req.Class, Reason: "test shed"}
}

// TestTraceRejectedSpans pins the shed path: validate and admission spans
// with the policy rationale, a rejected mark, no queue/dispatch spans ever.
func TestTraceRejectedSpans(t *testing.T) {
	env := newTracedEnv(t, shedAll{})
	s, _ := env.d.OpenSession("bob")
	_, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err == nil {
		t.Fatal("shed-all accepted a submission")
	}
	jobs := env.d.ListJobs()
	if len(jobs) != 1 || jobs[0].State != JobRejected {
		t.Fatalf("jobs = %+v", jobs)
	}
	id := jobs[0].ID

	want := []trace.Stage{trace.StageValidate, trace.StageAdmission, trace.MarkRejected}
	if got := jobStages(*env.spans, id); !stagesEqual(got, want) {
		t.Fatalf("rejected stage sequence = %v, want %v", got, want)
	}
	for _, sp := range *env.spans {
		if sp.Job == id && sp.Stage == trace.StageAdmission {
			if want := "shed-all rejected: test shed"; sp.Detail != want {
				t.Errorf("admission detail = %q, want %q", sp.Detail, want)
			}
		}
	}
	if rec, ok := env.flight.Job(id); !ok || rec.State != trace.MarkRejected {
		t.Fatalf("flight recorder rejected trace: ok=%v rec=%+v", ok, rec)
	}

	// An aggregating listener (PipelineSpansOnly) reads no detail: the shed
	// carries the interned reason-less annotation, not a built string.
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var spans []trace.Span
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, Admission: shedAll{},
		SpanListener: func(s trace.Span) { spans = append(spans, s) }, PipelineSpansOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _ = d.OpenSession("bob")
	if _, err := d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev}); err == nil {
		t.Fatal("shed-all accepted a submission")
	}
	want = []trace.Stage{trace.StageValidate, trace.StageAdmission}
	if got := jobStages(spans, d.ListJobs()[0].ID); !stagesEqual(got, want) {
		t.Fatalf("pipeline-only rejected stage sequence = %v, want %v", got, want)
	}
	if det := spans[1].Detail; det != "shed-all rejected" {
		t.Errorf("pipeline-only admission detail = %q, want %q", det, "shed-all rejected")
	}
}

// TestTracePreemptionSpans pins the preemption path: the victim's first
// execute segment is closed with a "preempted" detail, the preempted and
// requeue marks fire, and the second wait is attributed to the requeued
// stage — not queued — so stage-latency reports can separate first waits
// from preemption-induced ones.
func TestTracePreemptionSpans(t *testing.T) {
	env := newTracedEnv(t, nil)
	bob, _ := env.d.OpenSession("bob")
	alice, _ := env.d.OpenSession("alice")
	devJob, _ := env.d.Submit(bob.Token, SubmitRequest{Program: payload(t, 500), Class: sched.ClassDev})
	env.clk.Advance(10 * time.Second)
	if _, err := env.d.Submit(alice.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction}); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(600 * time.Second)
	if dv, _ := env.d.JobStatus(bob.Token, devJob.ID); dv.State != JobCompleted {
		t.Fatalf("dev job = %s, want completed", dv.State)
	}

	got := jobStages(*env.spans, devJob.ID)
	want := []trace.Stage{
		trace.StageValidate, trace.StageAdmission, trace.StageRoute,
		trace.StageQueued, trace.StageDispatch,
		trace.StageBusy, trace.StageExecute, trace.MarkPreempted, trace.MarkRequeued,
		trace.StageRequeued, trace.StageDispatch,
		trace.StageBusy, trace.StageExecute, trace.MarkCompleted,
	}
	if !stagesEqual(got, want) {
		t.Fatalf("preempted stage sequence = %v, want %v", got, want)
	}
	// The first execute segment carries the preemption annotation.
	var segments []trace.Span
	for _, sp := range *env.spans {
		if sp.Job == devJob.ID && sp.Stage == trace.StageExecute {
			segments = append(segments, sp)
		}
	}
	if len(segments) != 2 || segments[0].Detail != "preempted" {
		t.Fatalf("execute segments = %+v", segments)
	}
}

// TestTraceOccupancySpans pins the partition busy/idle track: after an idle
// gap and one job, the device has an idle span covering the gap and a busy
// span naming the occupant, contiguous at the dispatch instant.
func TestTraceOccupancySpans(t *testing.T) {
	env := newTracedEnv(t, nil)
	s, _ := env.d.OpenSession("alice")
	env.clk.Advance(40 * time.Second) // idle gap before the submission
	j, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction})
	env.clk.Advance(30 * time.Second)
	if got, _ := env.d.JobStatus(s.Token, j.ID); got.State != JobCompleted {
		t.Fatalf("job = %s", got.State)
	}

	occ := env.flight.Occupancy()
	if len(occ) != 1 {
		t.Fatalf("occupancy tracks = %d, want 1", len(occ))
	}
	for dev, spans := range occ {
		if len(spans) != 2 {
			t.Fatalf("%s occupancy = %+v, want idle+busy", dev, spans)
		}
		idle, busy := spans[0], spans[1]
		if idle.Stage != trace.StageIdle || idle.Start != 0 || idle.End != 40*time.Second {
			t.Fatalf("idle span = %+v", idle)
		}
		if busy.Stage != trace.StageBusy || busy.Job != j.ID || busy.Start != idle.End {
			t.Fatalf("busy span = %+v", busy)
		}
	}
}

// TestTracingOffEmitsNothing pins the zero-cost-off contract: without a
// listener or recorder the daemon emits no spans and Flight() is nil.
func TestTracingOffEmitsNothing(t *testing.T) {
	env := newEnv(t)
	if env.d.traced() || env.d.Flight() != nil {
		t.Fatal("untraced daemon reports tracing attached")
	}
	s, _ := env.d.OpenSession("alice")
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev}); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(30 * time.Second)
}

// TestHTTPTraceEndpoints exercises GET /api/v1/trace and /api/v1/trace/{id}
// end to end over the REST API, plus the 404 contracts for unknown jobs and
// a recorder-less daemon.
func TestHTTPTraceEndpoints(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	flight := trace.NewFlightRecorder(8)
	d, err := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "root-token",
		EnablePreemption: true, Flight: flight, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	sess, _ := d.OpenSession("alice")
	j, err := d.Submit(sess.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)

	code, body := httpDo(t, http.MethodGet, ts.URL+"/api/v1/trace", sess.Token, nil)
	if code != http.StatusOK {
		t.Fatalf("trace listing: HTTP %d: %s", code, body)
	}
	var listing struct {
		Live int              `json:"live"`
		Done int              `json:"done"`
		Jobs []trace.JobTrace `json:"jobs"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Done != 1 || len(listing.Jobs) != 1 || listing.Jobs[0].Job != j.ID {
		t.Fatalf("listing = %+v", listing)
	}

	code, body = httpDo(t, http.MethodGet, ts.URL+"/api/v1/trace/"+j.ID, sess.Token, nil)
	if code != http.StatusOK {
		t.Fatalf("trace fetch: HTTP %d: %s", code, body)
	}
	var rec trace.JobTrace
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != trace.MarkCompleted || len(rec.Spans) == 0 {
		t.Fatalf("trace = %+v", rec)
	}

	if code, _ = httpDo(t, http.MethodGet, ts.URL+"/api/v1/trace/job-999", sess.Token, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d, want 404", code)
	}
	if code, _ = httpDo(t, http.MethodGet, ts.URL+"/api/v1/trace", "bogus", nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated trace: HTTP %d, want 401", code)
	}

	// A daemon without a recorder 404s rather than serving an empty listing.
	bare := newHTTPEnv(t)
	bare.clk.Lock() // the env's pump drives the clock
	bareSess, _ := bare.d.OpenSession("bob")
	bare.clk.Unlock()
	if code, _ = httpDo(t, http.MethodGet, bare.ts.URL+"/api/v1/trace", bareSess.Token, nil); code != http.StatusNotFound {
		t.Fatalf("recorder-less trace: HTTP %d, want 404", code)
	}
}

// TestHTTPMetricsQuery exercises the TSDB range-query endpoint: raw range
// reads, label selection, windowed aggregation, and the error contracts.
func TestHTTPMetricsQuery(t *testing.T) {
	clk := simclock.New()
	tsdb := telemetry.NewTSDB(24*time.Hour, 0)
	dev, err := device.New(device.Config{Clock: clk, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "root-token", TSDB: tsdb, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	series := tsdb.Bind("test_metric", telemetry.Labels{"device": "qpu-0"})
	for i := 0; i < 10; i++ {
		series.Append(time.Duration(i)*time.Minute, float64(i))
	}
	clk.Advance(10 * time.Minute)

	get := func(query string) (int, []byte) {
		return httpDo(t, http.MethodGet, ts.URL+"/api/v1/metrics/query?"+query, "", nil)
	}

	code, body := get("name=test_metric&device=qpu-0&from=2m&to=5m")
	if code != http.StatusOK {
		t.Fatalf("range query: HTTP %d: %s", code, body)
	}
	var resp struct {
		Points []struct {
			AtSeconds float64 `json:"at_seconds"`
			Value     float64 `json:"value"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 4 || resp.Points[0].AtSeconds != 120 || resp.Points[3].Value != 5 {
		t.Fatalf("range points = %+v", resp.Points)
	}

	// to defaults to the current simulation time; plain-seconds from works.
	code, body = get("name=test_metric&device=qpu-0&from=540")
	if code != http.StatusOK {
		t.Fatalf("open-ended query: HTTP %d: %s", code, body)
	}
	resp.Points = nil
	json.Unmarshal(body, &resp)
	if len(resp.Points) != 1 || resp.Points[0].Value != 9 {
		t.Fatalf("open-ended points = %+v", resp.Points)
	}

	code, body = get("name=test_metric&device=qpu-0&window=5m&agg=mean")
	if code != http.StatusOK {
		t.Fatalf("downsample query: HTTP %d: %s", code, body)
	}
	resp.Points = nil
	json.Unmarshal(body, &resp)
	if len(resp.Points) != 2 || resp.Points[0].Value != 2 || resp.Points[1].Value != 7 {
		t.Fatalf("downsampled points = %+v", resp.Points)
	}

	if code, body = get(""); code != http.StatusBadRequest || !strings.Contains(string(body), "test_metric|") {
		t.Fatalf("nameless query: HTTP %d: %s (want 400 with series names)", code, body)
	}
	if code, _ = get("name=test_metric&agg=mean"); code != http.StatusBadRequest {
		t.Fatalf("agg without window: HTTP %d, want 400", code)
	}
	if code, _ = get("name=test_metric&window=5m&agg=median"); code != http.StatusBadRequest {
		t.Fatalf("unknown agg: HTTP %d, want 400", code)
	}
	// A 1 ns window costs one step per point, not one per empty window:
	// each of the ten samples lands in a window of its own.
	code, body = get("name=test_metric&device=qpu-0&window=1ns&agg=last")
	resp.Points = nil
	json.Unmarshal(body, &resp)
	if code != http.StatusOK || len(resp.Points) != 10 || resp.Points[9].AtSeconds != 540 {
		t.Fatalf("1ns-window query: HTTP %d, points %+v", code, resp.Points)
	}
	// Times that are not finite, are negative or overflow a time.Duration
	// are refused; the largest plain-seconds value that fits is served.
	for _, query := range []string{
		"from=bogus", "from=NaN", "from=Inf", "from=-Inf", "from=-5", "from=-1m",
		"to=NaN", "to=1e12", "window=NaN", "window=+Inf", "window=-10s", "window=1e10",
	} {
		if code, body = get("name=test_metric&device=qpu-0&" + query); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", query, code, body)
		}
	}
	if code, body = get("name=test_metric&device=qpu-0&to=9e9"); code != http.StatusOK {
		t.Fatalf("to=9e9: HTTP %d: %s", code, body)
	}

	// A TSDB-less daemon 404s the whole endpoint.
	bare := newHTTPEnv(t)
	code, _ = httpDo(t, http.MethodGet, bare.ts.URL+"/api/v1/metrics/query?name=x", "", nil)
	if code != http.StatusNotFound {
		t.Fatalf("tsdb-less query: HTTP %d, want 404", code)
	}
}

// TestTraceSpanJSONShape pins the over-the-wire span field names the qctl
// trace renderer decodes.
func TestTraceSpanJSONShape(t *testing.T) {
	raw, err := json.Marshal(trace.Span{
		Job: "job-1", Stage: trace.StageQueued, Class: "dev", Device: "qpu-0",
		Start: time.Second, End: 2 * time.Second, Detail: "x",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"job"`, `"stage"`, `"class"`, `"device"`, `"start"`, `"end"`, `"detail"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("span JSON %s missing key %s", raw, key)
		}
	}
	var round trace.Span
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.Start != time.Second || round.Stage != trace.StageQueued {
		t.Fatalf("round-trip span = %+v", round)
	}
}

// TestTerminalDetailIsConstant pins every terminal span detail to the state
// plus, on a deadline-carrying job, its verdict — spelled as the state and
// " deadline=hit|miss" — and checks none of them is built per call.
func TestTerminalDetailIsConstant(t *testing.T) {
	for _, state := range []JobState{JobCompleted, JobFailed, JobCancelled} {
		for _, tc := range []struct {
			deadline, took float64
			verdict        string
		}{{0, 5, ""}, {10, 5, " deadline=hit"}, {10, 10, " deadline=hit"}, {10, 11, " deadline=miss"}} {
			j := &Job{State: state, DeadlineSeconds: tc.deadline, SubmittedAt: time.Minute,
				FinishedAt: time.Minute + simclock.Seconds(tc.took)}
			want := string(state) + tc.verdict
			if state != JobCompleted && tc.verdict != "" {
				want = string(state) + " deadline=miss"
			}
			if got := terminalDetail(j); got != want {
				t.Errorf("%s deadline=%g took=%g: detail %q, want %q", state, tc.deadline, tc.took, got, want)
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = terminalDetail(j) }); allocs != 0 {
				t.Errorf("%s deadline=%g: %v allocations", state, tc.deadline, allocs)
			}
		}
	}
}

// TestTraceListingWire pins the GET /api/v1/trace body byte for byte:
// testdata/trace_wire.golden was recorded from the map[string]any listing
// the typed traceListView replaced (keys sorted: done, jobs, live,
// occupancy), over an empty recorder, then one holding live, terminal and
// evicted traces — a preemption, a cancel and a shed among them — on two
// partitions' occupancy tracks. Fewer than ten jobs, so the mint order the
// listing now keeps is also the ID-string order the map's sort kept.
func TestTraceListingWire(t *testing.T) {
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 31, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Router: NewRoundRobinRouter(), Clock: clk,
		Admission:  &admission.QueueDepth{PerDeviceDepth: 1},
		AdminToken: "admin", EnablePreemption: true, Flight: trace.NewFlightRecorder(3), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	e := &wireEnv{t: t, clk: clk, d: d, h: d.Handler(), token: s.Token}
	e.record("empty", http.MethodGet, "/api/v1/trace", "")
	dev0 := `,"device":"` + d.deviceIDs()[0] + `"`
	e.submit("short test", `,"class":"test"`, 10)
	e.submit("short dev", `,"class":"dev"`, 12)
	clk.Advance(15 * time.Second)
	long := e.submit("long dev", `,"class":"dev"`+dev0, 200)
	e.submit("queued dev", `,"class":"dev"`+dev0, 20)
	e.submit("queued dev behind it", `,"class":"dev"`+dev0, 20)
	e.record("shed dev", http.MethodPost, "/api/v1/jobs", `{"class":"dev","program":`+string(payload(t, 20))+`}`)
	clk.Advance(5 * time.Second)
	e.submit("production preempts", `,"class":"production"`+dev0, 15)
	cancelled := e.submit("cancelled test", `,"class":"test"`, 300)
	clk.Advance(10 * time.Second)
	e.record("cancel", http.MethodDelete, "/api/v1/jobs/"+cancelled, "")
	clk.Advance(40 * time.Second)
	e.record("listing", http.MethodGet, "/api/v1/trace", "")
	e.record("one live", http.MethodGet, "/api/v1/trace/"+long, "")
	checkGolden(t, "trace_wire.golden", e.out.String())
}
