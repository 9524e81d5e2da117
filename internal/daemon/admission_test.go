package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// newAdmissionEnv is a fleet daemon with an explicit admission policy.
func newAdmissionEnv(t *testing.T, n int, pol admission.Policy) (*fleetEnv, *telemetry.Registry) {
	t.Helper()
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	fleet, err := device.NewFleet(n, device.Config{Clock: clk, Seed: 31, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Clock: clk, Admission: pol,
		AdminToken: "admin", EnablePreemption: true, Seed: 3, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fleetEnv{clk: clk, fleet: fleet, d: d}, reg
}

// oneShotBucket admits a single dev job, then sheds the class.
func oneShotBucket() admission.Policy {
	return admission.NewTokenBucketWith(map[sched.Class]admission.Quota{
		sched.ClassDev: {RatePerHour: 0.000001, Burst: 1},
	})
}

// TestSubmitRejectedTerminal: a shed submission becomes a terminal rejected
// job record — queryable, listed, counted, and never cancellable.
func TestSubmitRejectedTerminal(t *testing.T) {
	env, reg := newAdmissionEnv(t, 1, oneShotBucket())
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev}); err != nil {
		t.Fatalf("first dev job rejected: %v", err)
	}
	_, err = env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("second dev job error = %v, want RejectedError", err)
	}
	if rej.Job.State != JobRejected || rej.Reason == "" {
		t.Fatalf("rejected job = %+v", rej.Job)
	}
	if rej.Job.FinishedAt != rej.Job.SubmittedAt {
		t.Fatalf("rejected job not terminal from birth: %+v", rej.Job)
	}

	// The record is owned by the session like any other job.
	j, err := env.d.JobStatus(s.Token, rej.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobRejected || j.AdmissionOutcome != "rejected" || !strings.Contains(j.AdmissionReason, "token-bucket") {
		t.Fatalf("job status = %+v", j)
	}

	// Cancel cannot resurrect or re-finish it.
	if err := env.d.CancelJob(s.Token, j.ID, false); err == nil || !strings.Contains(err.Error(), "already rejected") {
		t.Fatalf("cancel of rejected job = %v", err)
	}

	// It appears in the admin listing and the shed counters.
	found := false
	for _, lj := range env.d.ListJobs() {
		if lj.ID == j.ID && lj.State == JobRejected {
			found = true
		}
	}
	if !found {
		t.Fatal("rejected job missing from admin listing")
	}
	st := env.d.AdminStatus()
	if st.Rejected != 1 || st.Admission != "token-bucket" {
		t.Fatalf("admin status rejected=%d admission=%q", st.Rejected, st.Admission)
	}
	for _, metric := range []string{"daemon_admission_total", "daemon_admission_rejected_total"} {
		if !strings.Contains(reg.Expose(), metric) {
			t.Fatalf("metrics exposition missing %s", metric)
		}
	}
}

// TestPinnedSubmitShedding: a pin bypasses the router, not the door — a
// pinned submission to a partition of a shedding fleet is still rejected.
func TestPinnedSubmitShedding(t *testing.T) {
	env, _ := newAdmissionEnv(t, 2, &admission.QueueDepth{PerDeviceDepth: 1})
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs start running (one per partition); the next two fill the
	// fleet-wide dev depth cap (1 × 2 partitions).
	for i := 0; i < 4; i++ {
		if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassDev}); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	pin := env.d.Devices()[0].ID()
	_, err = env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassDev, Device: pin})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("pinned submit to shedding fleet = %v, want RejectedError", err)
	}
	if !rej.Job.Pinned || !strings.Contains(rej.Reason, "queue-depth") {
		t.Fatalf("rejected pinned job = %+v reason %q", rej.Job, rej.Reason)
	}
	// Production is still admitted through the same door.
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassProduction, Device: pin}); err != nil {
		t.Fatalf("pinned production rejected: %v", err)
	}
	env.drain(t, time.Hour)
}

// TestAdmissionDowngrade: under SLO pressure, test work is down-classed to
// dev and the job record keeps both classes.
func TestAdmissionDowngrade(t *testing.T) {
	guard := admission.NewSLOGuard()
	// Pre-load the controller at warn pressure: production p99 wait at half
	// the 60s target.
	for i := 0; i < 5; i++ {
		guard.Observe(admission.Signal{Class: sched.ClassProduction, At: 0, WaitSeconds: 30, Slowdown: -1})
	}
	env, _ := newAdmissionEnv(t, 1, guard)
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	if j.Class != sched.ClassDev || j.RequestedClass != sched.ClassTest || j.AdmissionOutcome != "downgraded" {
		t.Fatalf("downgraded job = %+v", j)
	}
	if j.AdmissionReason == "" {
		t.Fatal("downgrade carries no reason")
	}
	// Dev passes unchanged at warn pressure, production always.
	for _, class := range []sched.Class{sched.ClassDev, sched.ClassProduction} {
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: class})
		if err != nil {
			t.Fatal(err)
		}
		if j.Class != class || j.AdmissionOutcome != "" {
			t.Fatalf("%s job altered by warn tier: %+v", class, j)
		}
	}
	env.drain(t, time.Hour)
}

// TestCancelRacingRejected: concurrent cancels of a job that was shed at
// admission must all fail cleanly and leave the record rejected.
func TestCancelRacingRejected(t *testing.T) {
	env, _ := newAdmissionEnv(t, 1, oneShotBucket())
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev}); err != nil {
		t.Fatal(err)
	}
	_, err = env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("want RejectedError, got %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := env.d.CancelJob(s.Token, rej.Job.ID, false); err == nil {
				t.Error("cancel of rejected job succeeded")
			}
		}()
	}
	wg.Wait()
	j, err := env.d.JobStatus(s.Token, rej.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobRejected {
		t.Fatalf("state after cancel race = %s", j.State)
	}
}

// TestHTTPRejected429: the REST surface renders a shed submission as 429 Too
// Many Requests with the rejected job record and reason in the body.
func TestHTTPRejected429(t *testing.T) {
	env, _ := newAdmissionEnv(t, 1, oneShotBucket())
	srv := httptest.NewServer(env.d.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/api/v1/sessions", "application/json", strings.NewReader(`{"user":"alice"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	submit := func() (*http.Response, map[string]any) {
		t.Helper()
		body := `{"program":` + string(payload(t, 2)) + `,"class":"dev"}`
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/v1/jobs", strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+sess.Token)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out
	}

	if resp, _ := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp2, out := submit()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit = %d, want 429", resp2.StatusCode)
	}
	if out["state"] != "rejected" || out["admission_outcome"] != "rejected" {
		t.Fatalf("429 body = %v", out)
	}
	reason, _ := out["admission_reason"].(string)
	if !strings.Contains(reason, "token-bucket") {
		t.Fatalf("429 reason = %q", reason)
	}

	// The rejected job stays queryable over HTTP.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/jobs/"+out["id"].(string), nil)
	req.Header.Set("Authorization", "Bearer "+sess.Token)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var got map[string]any
	if err := json.NewDecoder(resp3.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK || got["state"] != "rejected" {
		t.Fatalf("rejected job status = %d %v", resp3.StatusCode, got)
	}
}

// TestMalformedSubmitSparesQuota: structurally invalid submissions (bad
// program bytes, unknown device pin) fail before admission, so they cannot
// drain a stateful policy's tokens.
func TestMalformedSubmitSparesQuota(t *testing.T) {
	env, _ := newAdmissionEnv(t, 1, admission.NewTokenBucketWith(map[sched.Class]admission.Quota{
		sched.ClassDev: {RatePerHour: 0.000001, Burst: 1},
	}))
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := env.d.Submit(s.Token, SubmitRequest{Program: []byte("not json"), Class: sched.ClassDev}); err == nil {
			t.Fatal("malformed program accepted")
		}
		// Decodes but is structurally invalid: unknown kind, zero shots.
		if _, err := env.d.Submit(s.Token, SubmitRequest{Program: []byte(`{"bogus":true}`), Class: sched.ClassDev}); err == nil {
			t.Fatal("structurally invalid program accepted")
		}
		// Well-formed but no partition can run it (over the shot cap).
		if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 1_000_000), Class: sched.ClassDev}); err == nil {
			t.Fatal("over-spec program accepted")
		}
		if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev, Device: "no-such-partition"}); err == nil {
			t.Fatal("unknown pin accepted")
		}
	}
	// The single token is still there for a well-formed submission.
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev}); err != nil {
		t.Fatalf("well-formed dev job rejected after malformed flood: %v", err)
	}
}

// brokenPolicy returns a fixed decision regardless of the request —
// exercising the daemon's Decision-contract enforcement.
type brokenPolicy struct{ dec admission.Decision }

func (b brokenPolicy) Name() string                                               { return "broken" }
func (b brokenPolicy) Admit(admission.Request, admission.View) admission.Decision { return b.dec }

// TestAdmissionDecisionContract: malformed decisions from custom policies
// fail loudly instead of silently re-classing jobs.
func TestAdmissionDecisionContract(t *testing.T) {
	cases := []admission.Decision{
		// Accepted with the Class field left at its zero value (ClassDev).
		{Outcome: admission.Accepted},
		// Downgrade that is actually an upgrade.
		{Outcome: admission.Downgraded, Class: sched.ClassProduction},
		// Unknown outcome string.
		{Outcome: "waitlisted", Class: sched.ClassTest},
	}
	for _, dec := range cases {
		env, _ := newAdmissionEnv(t, 1, brokenPolicy{dec: dec})
		s, err := env.d.OpenSession("alice")
		if err != nil {
			t.Fatal(err)
		}
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassTest})
		if err == nil {
			t.Fatalf("decision %+v accepted; job ran at class %s", dec, j.Class)
		}
	}
}

// TestOrderPolicyConfig covers the queueing stage's policy switch.
func TestOrderPolicyConfig(t *testing.T) {
	for _, name := range Orders.Names() {
		o, err := NewOrder(name)
		if err != nil {
			t.Fatal(err)
		}
		if o.Name() != name {
			t.Fatalf("order %q reports %q", name, o.Name())
		}
	}
	if _, err := NewOrder("lifo"); err == nil {
		t.Fatal("unknown order accepted")
	}
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	order, _ := NewOrder("fair-share")
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	if d.OrderName() != "fair-share" || d.AdmissionName() != "accept-all" {
		t.Fatalf("policy names = %s/%s", d.OrderName(), d.AdmissionName())
	}
}

// TestRejectedJobResultIsTerminal: a shed job's result is a terminal error
// carrying the admission reason, through Handler() and through the QRMI
// client — not "not ready", which a caller polling TaskResult would wait on
// forever. An ID the session cannot see reads 404 on the result path as it
// does on the status path.
func TestRejectedJobResultIsTerminal(t *testing.T) {
	env, _ := newAdmissionEnv(t, 1, oneShotBucket())
	ts := httptest.NewServer(env.d.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL, "alice", sched.ClassDev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TaskStart(payload(t, 2)); err != nil {
		t.Fatalf("first dev job: %v", err)
	}
	code, out := httpDo(t, "POST", ts.URL+"/api/v1/jobs", c.SessionToken(),
		map[string]any{"program": json.RawMessage(payload(t, 2)), "class": "dev"})
	var shed struct {
		ID string `json:"id"`
	}
	if code != http.StatusTooManyRequests || json.Unmarshal(out, &shed) != nil || shed.ID == "" {
		t.Fatalf("second dev job = %d: %s", code, out)
	}

	code, out = httpDo(t, "GET", ts.URL+"/api/v1/jobs/"+shed.ID+"/result", c.SessionToken(), nil)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(out), "token-bucket") {
		t.Fatalf("result of rejected job = %d: %s; want 422 with the admission reason", code, out)
	}
	if st, err := c.TaskStatus(shed.ID); err != nil || !st.Terminal() {
		t.Fatalf("TaskStatus of rejected job = %v, %v", st, err)
	}
	_, err = c.TaskResult(shed.ID)
	if err == nil || errors.Is(err, qrmi.ErrResultNotReady) || !strings.Contains(err.Error(), "token-bucket") {
		t.Fatalf("TaskResult of rejected job = %v; want a terminal error with the admission reason", err)
	}

	for _, id := range []string{"job-999999", "no-such-job"} {
		if code, out := httpDo(t, "GET", ts.URL+"/api/v1/jobs/"+id+"/result", c.SessionToken(), nil); code != http.StatusNotFound {
			t.Fatalf("result of unknown job %s = %d: %s; want 404", id, code, out)
		}
	}
}

// deferringPolicy answers every submission with an outcome the daemon has
// never heard of.
type deferringPolicy struct{}

func (deferringPolicy) Name() string { return "deferring" }
func (deferringPolicy) Admit(admission.Request, admission.View) admission.Decision {
	return admission.Decision{Outcome: "deferred"}
}

// TestUnknownAdmissionOutcomeIsCounted: a policy returning an outcome
// NewDaemon bound no handle for fails the submission, and the decision is
// still counted — under a series bound on the spot.
func TestUnknownAdmissionOutcomeIsCounted(t *testing.T) {
	env, reg := newAdmissionEnv(t, 1, deferringPolicy{})
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	_, err = env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassTest})
	if err == nil || !strings.Contains(err.Error(), `unknown outcome "deferred"`) {
		t.Fatalf("submit error = %v, want unknown outcome", err)
	}
	if got := exposed(t, reg, `daemon_admission_total{class="test",outcome="deferred"}`); got != 1 {
		t.Fatalf(`daemon_admission_total{class="test",outcome="deferred"} = %g, want 1`, got)
	}
}
