package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// httpEnv hosts the daemon REST API on an httptest server with a background
// clock pump so device execution progresses in (scaled) real time.
type httpEnv struct {
	clk *simclock.Clock
	dev *device.Device
	d   *Daemon
	ts  *httptest.Server
}

func newHTTPEnv(t *testing.T) *httpEnv {
	t.Helper()
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, err := device.New(device.Config{Clock: clk, Seed: 21, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "root-token",
		EnablePreemption: true, Registry: reg, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	// Pump: advance simulated time aggressively so polls see progress.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				clk.Advance(5 * time.Second)
			}
		}
	}()
	return &httpEnv{clk: clk, dev: dev, d: d, ts: ts}
}

func httpDo(t *testing.T, method, url, token string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func analogPayload(t *testing.T, shots int) json.RawMessage {
	t.Helper()
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	raw, err := qir.NewAnalogProgram(seq, shots).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestHTTPFullJobFlow(t *testing.T) {
	env := newHTTPEnv(t)
	// Open a session.
	code, data := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "alice"})
	if code != http.StatusCreated {
		t.Fatalf("session status = %d: %s", code, data)
	}
	var sess Session
	json.Unmarshal(data, &sess)

	// Device metadata.
	code, data = httpDo(t, "GET", env.ts.URL+"/api/v1/devices", sess.Token, nil)
	if code != http.StatusOK || !strings.Contains(string(data), "analog-qpu") {
		t.Fatalf("device: %d %s", code, data)
	}

	// Submit.
	code, data = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 10),
		"class":   "production",
		"pattern": "qc-heavy",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(data, &job)

	// Poll to completion.
	deadline := time.Now().Add(5 * time.Second)
	var state string
	for time.Now().Before(deadline) {
		_, data = httpDo(t, "GET", env.ts.URL+"/api/v1/jobs/"+job.ID, sess.Token, nil)
		var st struct {
			State string `json:"state"`
		}
		json.Unmarshal(data, &st)
		state = st.State
		if state == "completed" || state == "failed" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if state != "completed" {
		t.Fatalf("final state = %s", state)
	}

	// Result.
	code, data = httpDo(t, "GET", env.ts.URL+"/api/v1/jobs/"+job.ID+"/result", sess.Token, nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, data)
	}
	var res qir.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 10 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}

	// Close session.
	code, _ = httpDo(t, "DELETE", env.ts.URL+"/api/v1/sessions", sess.Token, nil)
	if code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
}

func TestHTTPAuthRequired(t *testing.T) {
	env := newHTTPEnv(t)
	code, _ := httpDo(t, "GET", env.ts.URL+"/api/v1/devices", "", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("no token: %d", code)
	}
	code, _ = httpDo(t, "GET", env.ts.URL+"/api/v1/devices", "fake-token", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("bad token: %d", code)
	}
	// Health is public.
	code, _ = httpDo(t, "GET", env.ts.URL+"/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
}

func TestHTTPAdminEndpoints(t *testing.T) {
	env := newHTTPEnv(t)
	code, _ := httpDo(t, "GET", env.ts.URL+"/admin/v1/status", "wrong", nil)
	if code != http.StatusForbidden {
		t.Fatalf("bad admin token: %d", code)
	}
	code, data := httpDo(t, "GET", env.ts.URL+"/admin/v1/status", "root-token", nil)
	if code != http.StatusOK || !strings.Contains(string(data), "device") {
		t.Fatalf("admin status: %d %s", code, data)
	}
	code, data = httpDo(t, "POST", env.ts.URL+"/admin/v1/lowlevel/recalibrate", "root-token", nil)
	if code != http.StatusOK {
		t.Fatalf("recalibrate: %d %s", code, data)
	}
	code, _ = httpDo(t, "POST", env.ts.URL+"/admin/v1/lowlevel/detonate", "root-token", nil)
	if code != http.StatusForbidden {
		t.Fatalf("gated op: %d", code)
	}
	code, data = httpDo(t, "GET", env.ts.URL+"/admin/v1/jobs", "root-token", nil)
	if code != http.StatusOK {
		t.Fatalf("admin jobs: %d %s", code, data)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	env := newHTTPEnv(t)
	code, data := httpDo(t, "GET", env.ts.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(string(data), "qpu_up") {
		t.Fatalf("metrics missing qpu_up:\n%s", data)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	env := newHTTPEnv(t)
	code, _ := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", "not an object")
	if code != http.StatusBadRequest {
		t.Fatalf("bad session body: %d", code)
	}
	_, data := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "u"})
	var sess Session
	json.Unmarshal(data, &sess)
	code, _ = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 10),
		"class":   "warp-speed",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad class: %d", code)
	}
	code, _ = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 10),
		"pattern": "nonsense",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad pattern: %d", code)
	}
	code, _ = httpDo(t, "GET", env.ts.URL+"/api/v1/jobs/ghost", sess.Token, nil)
	if code != http.StatusNotFound {
		t.Fatalf("ghost job: %d", code)
	}
}

// TestHTTPBodyLimit: both endpoints that decode a request body stop reading
// at maxBodyBytes and answer 413; a body just under the cap is still judged
// on its content.
func TestHTTPBodyLimit(t *testing.T) {
	env := newHTTPEnv(t)
	_, data := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "u"})
	var sess Session
	json.Unmarshal(data, &sess)
	for _, tc := range []struct {
		path, token, field string
		pad, want          int
	}{
		{"/api/v1/sessions", "", "user", maxBodyBytes, http.StatusRequestEntityTooLarge},
		{"/api/v1/jobs", sess.Token, "class", maxBodyBytes, http.StatusRequestEntityTooLarge},
		{"/api/v1/jobs", sess.Token, "class", maxBodyBytes - 64, http.StatusBadRequest},
	} {
		body := map[string]string{tc.field: strings.Repeat("x", tc.pad)}
		if code, out := httpDo(t, "POST", env.ts.URL+tc.path, tc.token, body); code != tc.want {
			t.Fatalf("POST %s with a %d-byte field = %d, want %d: %.200s", tc.path, tc.pad, code, tc.want, out)
		}
	}
}

func TestDaemonQRMIClient(t *testing.T) {
	env := newHTTPEnv(t)
	c, err := NewClient(env.ts.URL, "alice", sched.ClassProduction, nil)
	if err != nil {
		t.Fatal(err)
	}
	md, err := c.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := qrmi.SpecFromMetadata(md)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "analog-qpu" {
		t.Fatalf("spec = %+v", spec)
	}
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 1, 10))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	res, err := qrmi.RunProgram(c, qir.NewAnalogProgram(seq, 30), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 30 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if p := res.Counts.Probability("1"); p < 0.85 {
		t.Fatalf("P(1) = %g", p)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonQRMIFactory(t *testing.T) {
	env := newHTTPEnv(t)
	r, err := qrmi.ResolveResource(map[string]string{
		"resource":        "qpu-via-daemon",
		"resource_type":   "daemon",
		"daemon_endpoint": env.ts.URL,
		"daemon_user":     "carol",
		"daemon_class":    "test",
		"workload_hint":   "qc-balanced",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Target() != "daemon" {
		t.Fatalf("target = %s", r.Target())
	}
	if _, err := r.Metadata(); err != nil {
		t.Fatal(err)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("", "", sched.ClassDev, nil); err == nil {
		t.Fatal("empty client accepted")
	}
}

// TestHTTPSubmitHintsRoundTrip: the §3.5 duration hint and the job source
// survive the REST boundary — sent on submit, visible on the job record.
func TestHTTPSubmitHintsRoundTrip(t *testing.T) {
	env := newHTTPEnv(t)
	code, body := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "alice"})
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("session = %d: %s", code, body)
	}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}

	code, body = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program":              analogPayload(t, 20),
		"class":                "dev",
		"source":               "cloud",
		"expected_qpu_seconds": 12.5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var job struct {
		ID       string  `json:"id"`
		Source   string  `json:"source"`
		Expected float64 `json:"expected_qpu_seconds"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Source != "cloud" || job.Expected != 12.5 {
		t.Fatalf("round trip: source=%q expected=%g", job.Source, job.Expected)
	}

	// Omitting both: source defaults to slurm, the hint to the daemon's
	// own estimate.
	code, body = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 20),
		"class":   "dev",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Source != "slurm" || job.Expected <= 0 {
		t.Fatalf("defaults: source=%q expected=%g", job.Source, job.Expected)
	}
}

// TestHTTPSubmitRequestParity: every SubmitRequest field must survive both
// REST intakes — the raw POST /api/v1/jobs body and daemon.Client.TaskStart —
// all the way into the job record and the queued sched.Item the order and
// priority policies rank by. The field list is read by reflection, so adding
// a SubmitRequest field without wiring it over HTTP fails here.
func TestHTTPSubmitRequestParity(t *testing.T) {
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 21, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "root-token"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	pin := fleet.Devices()[1].ID()
	want := SubmitRequest{
		Program:            analogPayload(t, 30),
		Class:              sched.ClassTest,
		Pattern:            sched.PatternCCHeavy,
		Source:             "cloud",
		Device:             pin,
		ExpectedQPUSeconds: 12.5,
		DeadlineSeconds:    90,
	}
	// jsonKey maps each SubmitRequest field to its wire name.
	jsonKey := map[string]string{
		"Program": "program", "Class": "class", "Pattern": "pattern", "Source": "source",
		"Device": "device", "ExpectedQPUSeconds": "expected_qpu_seconds", "DeadlineSeconds": "deadline_seconds",
	}
	body := map[string]any{}
	rv := reflect.ValueOf(want)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		key, ok := jsonKey[name]
		if !ok {
			t.Fatalf("SubmitRequest.%s has no HTTP wire name in this test: wire it through http.go and client.go, then add it here", name)
		}
		if rv.Field(i).IsZero() {
			t.Fatalf("SubmitRequest.%s is zero in the parity request", name)
		}
		switch v := rv.Field(i).Interface().(type) {
		case []byte:
			body[key] = json.RawMessage(v)
		case sched.Class:
			body[key] = v.String()
		default:
			body[key] = v
		}
	}

	client, err := NewClient(ts.URL, "alice", want.Class, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Pattern, client.Partition = want.Pattern, want.Device
	client.ExpectedQPU = simclock.Seconds(want.ExpectedQPUSeconds)
	client.Deadline = simclock.Seconds(want.DeadlineSeconds)
	token := client.SessionToken()
	// Occupy the pinned partition so the submissions under test stay queued.
	if code, out := httpDo(t, "POST", ts.URL+"/api/v1/jobs", token,
		map[string]any{"program": analogPayload(t, 500), "class": "production", "device": pin}); code != http.StatusAccepted {
		t.Fatalf("blocker submit = %d: %s", code, out)
	}

	submitAt := clk.Now()
	check := func(intake, id string, source string) {
		t.Helper()
		d.mu.Lock()
		j := *d.jobs[id]
		d.mu.Unlock()
		if j.State != JobQueued {
			t.Fatalf("%s: job is %s, want queued", intake, j.State)
		}
		// The record keeps the program decoded; its encoding stands for it.
		program, err := json.Marshal(j.prog)
		if err != nil {
			t.Fatal(err)
		}
		got := SubmitRequest{Program: program, Class: j.Class, Pattern: j.Pattern, Source: j.Source,
			Device: j.Device, ExpectedQPUSeconds: j.ExpectedQPUSeconds, DeadlineSeconds: j.DeadlineSeconds}
		exp := want
		exp.Source = source
		if !j.Pinned || !reflect.DeepEqual(normalizeProgram(t, got), normalizeProgram(t, exp)) {
			t.Fatalf("%s: job record carries %+v (pinned=%v), submitted %+v", intake, got, j.Pinned, exp)
		}
		var item *sched.Item
		ds := d.byDevice[pin]
		for it := ds.queue.Pop(); it != nil; it = ds.queue.Pop() {
			if it.ID == id {
				item = it
			}
		}
		if item == nil {
			t.Fatalf("%s: job %s is not on partition %s's queue", intake, id, pin)
		}
		if item.Class != want.Class || item.Pattern != want.Pattern || item.Enqueued != submitAt ||
			item.ExpectedQPU != simclock.Seconds(want.ExpectedQPUSeconds) ||
			item.Deadline != submitAt+simclock.Seconds(want.DeadlineSeconds) {
			t.Fatalf("%s: queued item %+v does not carry the request", intake, *item)
		}
	}

	code, out := httpDo(t, "POST", ts.URL+"/api/v1/jobs", token, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, out)
	}
	var job struct {
		ID       string  `json:"id"`
		Deadline float64 `json:"deadline_seconds"`
	}
	if err := json.Unmarshal(out, &job); err != nil {
		t.Fatal(err)
	}
	if job.Deadline != want.DeadlineSeconds {
		t.Fatalf("response echoes deadline_seconds %g, want %g", job.Deadline, want.DeadlineSeconds)
	}
	check("POST /api/v1/jobs", job.ID, want.Source)

	// The QRMI client has no source knob: its submissions are the default
	// intake. Everything else must arrive.
	id, err := client.TaskStart(want.Program)
	if err != nil {
		t.Fatal(err)
	}
	check("Client.TaskStart", id, "slurm")
}

// normalizeProgram re-encodes the request's program so byte-level JSON
// formatting differences between intakes do not count as a mismatch.
func normalizeProgram(t *testing.T, r SubmitRequest) SubmitRequest {
	t.Helper()
	var v any
	if err := json.Unmarshal(r.Program, &v); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	r.Program = raw
	return r
}
