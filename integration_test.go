package hpcqc

// Cross-module integration tests: the full architecture assembled the way a
// hosting site would run it, exercised through its public seams (HTTP APIs,
// QRMI resources, the Slurm plugin environment) rather than package
// internals.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/core"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/emulator"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/slurm"
	"hpcqc/internal/telemetry"
)

func integrationProgram(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

// TestFullStackSlurmToQPU drives the whole pipeline: a Slurm job starts, its
// plugin-resolved environment points the runtime at the daemon, the daemon
// schedules onto the device, and the result flows back — all on one
// simulated clock, with telemetry recorded at each layer.
func TestFullStackSlurmToQPU(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	tsdb := telemetry.NewTSDB(0, 0)
	dev, err := device.New(device.Config{Clock: clk, Seed: 31, Registry: reg, TSDB: tsdb})
	if err != nil {
		t.Fatal(err)
	}
	dmn, err := daemon.NewDaemon(daemon.Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm",
		EnablePreemption: true, Registry: reg, TSDB: tsdb,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := slurm.NewCluster(slurm.ClusterConfig{
		Clock: clk, Nodes: 4, QPUGres: 10,
		Partitions: []slurm.Partition{
			{Name: "production", Priority: 100},
			{Name: "dev", Priority: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var jobID string
	var submitErr error
	_, err = cluster.Submit(slurm.JobSpec{
		Name: "hybrid", User: "alice", Partition: "production", Nodes: 1,
		Walltime: time.Hour, QPUUnits: 10, QPUResource: "qpu-onprem",
		Hint: "qc-balanced",
		OnStart: func(_ int, env map[string]string) {
			// The runtime inside the job: reads the plugin environment,
			// opens a daemon session, submits with the Slurm priority.
			if env["QRMI_RESOURCE"] != "qpu-onprem" || env["QRMI_QPU_SHARE"] != "1" {
				submitErr = nil
				t.Errorf("plugin env = %v", env)
			}
			sess, err := dmn.OpenSession(env["SLURM_JOB_USER"])
			if err != nil {
				submitErr = err
				return
			}
			prio := 0
			if _, err := jsonNumber(env["SLURM_JOB_PRIORITY"], &prio); err != nil {
				submitErr = err
				return
			}
			raw, err := integrationProgram(20).MarshalJSON()
			if err != nil {
				submitErr = err
				return
			}
			j, err := dmn.Submit(sess.Token, daemon.SubmitRequest{
				Program: raw,
				Class:   sched.ClassFromSlurmPriority(prio),
				Pattern: sched.Pattern(env["QRMI_WORKLOAD_HINT"]),
			})
			if err != nil {
				submitErr = err
				return
			}
			jobID = j.ID
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	if jobID == "" {
		t.Fatal("job never submitted through the stack")
	}
	// Admin view sees the job completed with production class.
	jobs := dmn.ListJobs()
	if len(jobs) != 1 || jobs[0].State != daemon.JobCompleted || jobs[0].ClassName() != "production" {
		t.Fatalf("admin jobs = %+v", jobs)
	}
	if jobs[0].Pattern != sched.PatternBalanced {
		t.Fatalf("hint lost: %q", jobs[0].Pattern)
	}
	// Telemetry flowed end to end.
	if got := exposed(t, reg, "qpu_shots_total"); got != 20 {
		t.Fatalf("shots metric = %g", got)
	}
	if _, ok := tsdb.Latest("daemon_queue_length", telemetry.Labels{"class": "production"}); !ok {
		t.Fatal("daemon queue telemetry missing")
	}
}

// jsonNumber parses an integer from a string via the json package, keeping
// this file free of strconv for variety in parsing paths under test.
func jsonNumber(s string, out *int) (bool, error) {
	return true, json.Unmarshal([]byte(s), out)
}

// TestRuntimeAgainstDaemonHTTP binds the portable runtime to the daemon via
// its HTTP client resource and runs the same program that runs on local
// emulators — the daemon is just another --qpu target.
func TestRuntimeAgainstDaemonHTTP(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	dmn, err := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm", EnablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(dmn.Handler())
	defer ts.Close()
	stop := make(chan struct{})
	defer close(stop)
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

	client, err := daemon.NewClient(ts.URL, "carol", sched.ClassProduction, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntimeWithResource(client, map[string]string{"resource": "daemon-qpu"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Spec().Name != "analog-qpu" {
		t.Fatalf("spec through daemon = %s", rt.Spec().Name)
	}
	res, err := rt.Execute(integrationProgram(15))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 15 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if res.Metadata["method"] != "hardware" {
		t.Fatalf("metadata = %v", res.Metadata)
	}
}

// TestDaemonSurvivesMaintenanceMidQueue covers the operational corner: jobs
// queue up, the admin takes the device down, queued work resumes afterwards.
func TestDaemonSurvivesMaintenanceMidQueue(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 35})
	dmn, _ := daemon.NewDaemon(daemon.Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm",
		AllowedLowLevelOps: []string{"maintenance_on", "maintenance_off"},
	})
	sess, _ := dmn.OpenSession("alice")
	raw, _ := integrationProgram(30).MarshalJSON()
	j1, err := dmn.Submit(sess.Token, daemon.SubmitRequest{Program: raw, Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := dmn.Submit(sess.Token, daemon.SubmitRequest{Program: raw, Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmn.LowLevelOp("maintenance_on"); err != nil {
		t.Fatal(err)
	}
	// state reads a job through the admin listing.
	state := func(id string) daemon.JobState {
		for _, j := range dmn.ListJobs() {
			if j.ID == id {
				return j.State
			}
		}
		return ""
	}
	// Running job (j1) completes; queued job (j2) must not start.
	clk.Advance(5 * time.Minute)
	if s1 := state(j1.ID); s1 != daemon.JobCompleted {
		t.Fatalf("j1 = %s", s1)
	}
	if s2 := state(j2.ID); s2 != daemon.JobQueued {
		t.Fatalf("j2 during maintenance = %s", s2)
	}
	if _, err := dmn.LowLevelOp("maintenance_off"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Minute)
	if s2 := state(j2.ID); s2 != daemon.JobCompleted {
		t.Fatalf("j2 after maintenance = %s", s2)
	}
}

// TestQRMIResourceContract is a contract test: every resource type — the
// local ones and the HTTP-backed daemon client — honours the same lifecycle
// invariants. The one row that differs is stated in the table: daemon.Client
// opens its session in NewClient, so "TaskStart before Acquire" does not
// apply to it.
func TestQRMIResourceContract(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 37})
	dr := qrmi.NewDeviceResource(dev, clk)
	dr.AutoAdvance = 30 * time.Second

	// The daemon behind httptest, its clock advanced by each request it
	// serves: a poll loop makes simulated progress with no pump goroutine.
	dclk := simclock.New()
	ddev, _ := device.New(device.Config{Clock: dclk, Seed: 38})
	dmn, err := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{ddev}, Clock: dclk, AdminToken: "adm"})
	if err != nil {
		t.Fatal(err)
	}
	handler := dmn.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dclk.Advance(5 * time.Second)
		handler.ServeHTTP(w, r)
	}))
	defer ts.Close()
	dc, err := daemon.NewClient(ts.URL, "dora", sched.ClassTest, nil)
	if err != nil {
		t.Fatal(err)
	}

	resources := []struct {
		name string
		r    qrmi.Resource
		// sessionAtConstruction: the resource is usable before Acquire.
		sessionAtConstruction bool
	}{
		{"emu-sv", qrmi.NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1), false},
		{"emu-mps", qrmi.NewEmulatorResource(emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: 4}), 2), false},
		{"qpu-direct", dr, false},
		{"daemon-http", dc, true},
	}

	payload, err := qrmi.EncodeProgram(integrationProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range resources {
		r := tc.r
		t.Run(tc.name, func(t *testing.T) {
			// Metadata carries a parseable spec.
			md, err := r.Metadata()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qrmi.SpecFromMetadata(md); err != nil {
				t.Fatal(err)
			}
			// Task ops require acquire.
			if !tc.sessionAtConstruction {
				if _, err := r.TaskStart(payload); err == nil {
					t.Fatal("TaskStart before Acquire accepted")
				}
			}
			tok, err := r.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			id, err := r.TaskStart(payload)
			if err != nil {
				t.Fatal(err)
			}
			// Poll to terminal within bounds.
			var st qrmi.TaskState
			for i := 0; i < 100; i++ {
				st, err = r.TaskStatus(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.Terminal() {
					break
				}
			}
			if st != qrmi.StateCompleted {
				t.Fatalf("state = %s", st)
			}
			raw, err := r.TaskResult(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := qrmi.DecodeResult(raw)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts.TotalShots() != 10 {
				t.Fatalf("shots = %d", res.Counts.TotalShots())
			}
			if err := r.Release(tok); err != nil {
				t.Fatal(err)
			}
			// Unknown task IDs error.
			if _, err := r.TaskStatus("ghost"); err == nil {
				t.Fatal("ghost status accepted")
			}
		})
	}
}

// TestEmulatorAgreementAcrossBackends is the physics contract: for an
// entangling blockade quench, the χ-limited MPS backend converges to the
// exact backend as χ grows.
func TestEmulatorAgreementAcrossBackends(t *testing.T) {
	omega := 2 * math.Pi
	seq := qir.NewAnalogSequence(qir.LinearRegister("chain", 6, 6))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: 300, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: 300, Val: 2},
	})
	prog := qir.NewAnalogProgram(seq, 30000)

	exact, err := emulator.NewSVBackend(emulator.SVConfig{DTNs: 0.5}).Run(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prevTVD = 2.0
	for _, chi := range []int{1, 4, 16} {
		res, err := emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: chi, DTNs: 1}).Run(prog, 2)
		if err != nil {
			t.Fatal(err)
		}
		tvd := emulator.TotalVariationDistance(exact.Counts, res.Counts)
		if tvd > prevTVD+0.05 {
			t.Fatalf("χ=%d TVD %g worse than smaller χ %g", chi, tvd, prevTVD)
		}
		prevTVD = tvd
	}
	if prevTVD > 0.08 {
		t.Fatalf("χ=16 TVD vs exact = %g", prevTVD)
	}
}

// TestObservabilityEndToEnd scrapes the daemon's /metrics endpoint after
// real activity and checks the exposition parses as Prometheus text.
func TestObservabilityEndToEnd(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 39, Registry: reg})
	dmn, _ := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm", Registry: reg})
	sess, _ := dmn.OpenSession("alice")
	raw, _ := integrationProgram(5).MarshalJSON()
	dmn.Submit(sess.Token, daemon.SubmitRequest{Program: raw, Class: sched.ClassDev})
	clk.Advance(time.Minute)

	out := reg.Expose()
	// Every line is either a comment or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{"qpu_up", "qpu_shots_total", "daemon_jobs_total", "daemon_job_wait_seconds_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %s:\n%s", want, out)
		}
	}
}

// TestREADMENamesEveryInternalPackage keeps README's tables and the tree from
// drifting apart: every directory under internal/ is named in a table row,
// and every `internal/<dir>` a row names exists.
func TestREADMENamesEveryInternalPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	inRow := regexp.MustCompile("`internal/([a-z]+)")
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "|") {
			for _, m := range inRow.FindAllStringSubmatch(line, -1) {
				named[m[1]] = true
			}
		}
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !named[d.Name()] {
			t.Errorf("README.md's tables do not name internal/%s", d.Name())
		}
		delete(named, d.Name())
	}
	for name := range named {
		t.Errorf("README.md names internal/%s, which does not exist", name)
	}
}

// exposed reads one sample line of reg's exposition text, such as
// `qpu_tasks_total{state="completed"}`, and fails the test when it is absent.
func exposed(t *testing.T, reg *telemetry.Registry, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("%s is not exposed", series)
	return 0
}
