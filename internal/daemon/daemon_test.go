package daemon

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// testEnv is a daemon wired to a device on a shared simclock.
type testEnv struct {
	clk *simclock.Clock
	dev *device.Device
	d   *Daemon
	reg *telemetry.Registry
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, err := device.New(device.Config{Clock: clk, Seed: 11, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices:          []*device.Device{dev},
		Clock:            clk,
		AdminToken:       "admin-secret",
		EnablePreemption: true,
		Registry:         reg,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{clk: clk, dev: dev, d: d, reg: reg}
}

func payload(t *testing.T, shots int) []byte {
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

func TestNewDaemonValidation(t *testing.T) {
	if _, err := NewDaemon(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestSessionLifecycle(t *testing.T) {
	env := newEnv(t)
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if s.Token == "" || s.User != "alice" {
		t.Fatalf("session = %+v", s)
	}
	if _, err := env.d.OpenSession(""); err == nil {
		t.Fatal("empty user accepted")
	}
	if err := env.d.CloseSession(s.Token); err != nil {
		t.Fatal(err)
	}
	if err := env.d.CloseSession(s.Token); err == nil {
		t.Fatal("double close accepted")
	}
	// Tokens are unique.
	a, _ := env.d.OpenSession("a")
	b, _ := env.d.OpenSession("b")
	if a.Token == b.Token {
		t.Fatal("duplicate tokens")
	}
}

func TestSubmitAndComplete(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != JobRunning {
		t.Fatalf("state = %s (idle device dispatches immediately)", j.State)
	}
	env.clk.Advance(25 * time.Second)
	got, err := env.d.JobStatus(s.Token, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCompleted {
		t.Fatalf("state = %s", got.State)
	}
	raw, err := env.d.JobResult(s.Token, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "counts") {
		t.Fatalf("result = %s", raw)
	}
}

func TestSubmitValidatesProgramEarly(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: []byte("junk"), Class: sched.ClassDev}); err == nil {
		t.Fatal("junk program accepted")
	}
	// Valid JSON, invalid program (digital on analog device).
	raw, _ := qir.NewDigitalProgram(qir.NewCircuit(2).H(0), 10).MarshalJSON()
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: raw, Class: sched.ClassDev}); err == nil {
		t.Fatal("digital program accepted by analog daemon")
	}
	if _, err := env.d.Submit("bogus-token", SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev}); err == nil {
		t.Fatal("invalid session accepted")
	}
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.Class(9)}); err == nil {
		t.Fatal("invalid class accepted")
	}
}

func TestPriorityOrderAcrossSessions(t *testing.T) {
	env := newEnv(t)
	alice, _ := env.d.OpenSession("alice")
	bob, _ := env.d.OpenSession("bob")
	// Fill the device with a production job, then queue dev before prod.
	env.d.Submit(alice.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassProduction})
	devJob, _ := env.d.Submit(bob.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	prodJob, _ := env.d.Submit(alice.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction})
	env.clk.Advance(55 * time.Second) // first job done; prod should start, not dev
	p, _ := env.d.JobStatus(alice.Token, prodJob.ID)
	dv, _ := env.d.JobStatus(bob.Token, devJob.ID)
	if p.State != JobRunning {
		t.Fatalf("production job = %s", p.State)
	}
	if dv.State != JobQueued {
		t.Fatalf("dev job = %s", dv.State)
	}
}

func TestProductionPreemptsRunningDev(t *testing.T) {
	env := newEnv(t)
	bob, _ := env.d.OpenSession("bob")
	alice, _ := env.d.OpenSession("alice")
	devJob, _ := env.d.Submit(bob.Token, SubmitRequest{Program: payload(t, 500), Class: sched.ClassDev})
	env.clk.Advance(10 * time.Second)
	prodJob, err := env.d.Submit(alice.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction})
	if err != nil {
		t.Fatal(err)
	}
	// The production job runs immediately; the dev job is requeued.
	p, _ := env.d.JobStatus(alice.Token, prodJob.ID)
	dv, _ := env.d.JobStatus(bob.Token, devJob.ID)
	if p.State != JobRunning {
		t.Fatalf("production = %s", p.State)
	}
	if dv.State != JobQueued || dv.Preemptions != 1 {
		t.Fatalf("dev = %s preemptions=%d", dv.State, dv.Preemptions)
	}
	// Production finishes; dev restarts and eventually completes.
	env.clk.Advance(21 * time.Second)
	dv, _ = env.d.JobStatus(bob.Token, devJob.ID)
	if dv.State != JobRunning {
		t.Fatalf("dev after production = %s", dv.State)
	}
	env.clk.Advance(501 * time.Second)
	dv, _ = env.d.JobStatus(bob.Token, devJob.ID)
	if dv.State != JobCompleted {
		t.Fatalf("dev final = %s", dv.State)
	}
	if env.d.AdminStatus().Preemptions != 1 {
		t.Fatalf("preemptions = %d", env.d.AdminStatus().Preemptions)
	}
}

func TestNoPreemptionWhenDisabled(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 2})
	d, _ := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x", EnablePreemption: false})
	bob, _ := d.OpenSession("bob")
	alice, _ := d.OpenSession("alice")
	devJob, _ := d.Submit(bob.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	prodJob, _ := d.Submit(alice.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction})
	p, _ := d.JobStatus(alice.Token, prodJob.ID)
	dv, _ := d.JobStatus(bob.Token, devJob.ID)
	if p.State != JobQueued || dv.State != JobRunning {
		t.Fatalf("states: prod=%s dev=%s", p.State, dv.State)
	}
}

func TestCancelJobOwnership(t *testing.T) {
	env := newEnv(t)
	alice, _ := env.d.OpenSession("alice")
	bob, _ := env.d.OpenSession("bob")
	j, _ := env.d.Submit(alice.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	if err := env.d.CancelJob(bob.Token, j.ID, false); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cross-session cancel = %v, want ErrUnknownJob", err)
	}
	if err := env.d.CancelJob(alice.Token, j.ID, false); err != nil {
		t.Fatal(err)
	}
	got, _ := env.d.JobStatus(alice.Token, j.ID)
	if got.State != JobCancelled {
		t.Fatalf("state = %s", got.State)
	}
	if err := env.d.CancelJob(alice.Token, j.ID, false); err == nil {
		t.Fatal("double cancel accepted")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	queued, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err := env.d.CancelJob(s.Token, queued.ID, false); err != nil {
		t.Fatal(err)
	}
	got, _ := env.d.JobStatus(s.Token, queued.ID)
	if got.State != JobCancelled {
		t.Fatalf("state = %s", got.State)
	}
}

// TestRefusedPushFailsJob: a job the partition queue refuses must turn
// failed — with a Finished event, so a listener's submitted = terminal
// accounting still balances — instead of staying queued forever in the
// daemon's and the session's records with nothing left to dispatch it.
func TestRefusedPushFailsJob(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 11, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	events := map[string][]JobEventType{}
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x",
		JobListener: func(ev JobEvent) { events[ev.Job.ID] = append(events[ev.Job.ID], ev.Type) }})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.OpenSession("alice")
	running, _ := d.Submit(s.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	queued, _ := d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	// Re-run the queueing stage for the waiting job with a record the queue
	// will refuse (out-of-range class).
	ds := d.fleet[0]
	if !ds.queue.Remove(queued.ID) {
		t.Fatal("second job was not queued")
	}
	d.mu.Lock()
	j := d.jobs[queued.ID]
	j.Class = sched.Class(9)
	d.mu.Unlock()
	if err := d.push(ds, j); err == nil {
		t.Fatal("queue accepted an invalid class")
	}
	got, err := d.JobStatus(s.Token, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobFailed || got.Error == "" {
		t.Fatalf("refused job is %s (error %q), want failed with the queue's reason", got.State, got.Error)
	}
	clk.Advance(10 * time.Minute)
	for _, id := range []string{running.ID, queued.ID} {
		evs := events[id]
		if len(evs) == 0 || evs[0] != JobEventSubmitted || evs[len(evs)-1] != JobEventFinished {
			t.Fatalf("%s: events %v, want submitted … finished", id, evs)
		}
	}
	if n := ds.queue.Len(); n != 0 {
		t.Fatalf("%d items left queued", n)
	}
}

func TestCloseSessionCancelsQueuedJobs(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	running, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	queued, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	env.d.CloseSession(s.Token)
	// Queued cancelled, running untouched.
	jobs := env.d.ListJobs()
	states := map[string]JobState{}
	for _, j := range jobs {
		states[j.ID] = j.State
	}
	if states[queued.ID] != JobCancelled {
		t.Fatalf("queued = %s", states[queued.ID])
	}
	if states[running.ID] != JobRunning {
		t.Fatalf("running = %s", states[running.ID])
	}
}

// TestListJobsTotalOrder: jobs submitted at one simulated instant list
// newest-first by mint order — numerically, so job-10 follows job-11 and
// precedes job-9 — and identically on every call, not in Go map order.
func TestListJobsTotalOrder(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev}); err != nil {
			t.Fatal(err)
		}
	}
	for call := 0; call < 5; call++ {
		jobs := env.d.ListJobs()
		if len(jobs) != n {
			t.Fatalf("listed %d jobs, want %d", len(jobs), n)
		}
		for i, j := range jobs {
			if want := "job-" + strconv.Itoa(n-i); j.ID != want {
				t.Fatalf("call %d: listing[%d] = %s, want %s", call, i, j.ID, want)
			}
		}
	}
}

func TestJobStatusIsolation(t *testing.T) {
	env := newEnv(t)
	alice, _ := env.d.OpenSession("alice")
	bob, _ := env.d.OpenSession("bob")
	j, _ := env.d.Submit(alice.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if _, err := env.d.JobStatus(bob.Token, j.ID); err == nil {
		t.Fatal("cross-session status accepted")
	}
}

func TestAdminStatusAndLowLevel(t *testing.T) {
	env := newEnv(t)
	if env.d.AdminAuthorized("wrong") || !env.d.AdminAuthorized("admin-secret") {
		t.Fatal("admin auth broken")
	}
	s, _ := env.d.OpenSession("alice")
	env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 30), Class: sched.ClassProduction})
	env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	rep := env.d.AdminStatus()
	if rep.Sessions != 1 || rep.Running == "" || rep.QueuedByName["dev"] != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// Gated low-level ops: allowlisted pass, others rejected.
	if _, err := env.d.LowLevelOp("recalibrate"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.d.LowLevelOp("qa_check"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.d.LowLevelOp("laser_power_override"); err == nil {
		t.Fatal("non-allowlisted op accepted")
	}
}

func TestLowLevelMaintenanceOps(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 2})
	d, _ := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x",
		AllowedLowLevelOps: []string{"maintenance_on", "maintenance_off"},
	})
	if _, err := d.LowLevelOp("maintenance_on"); err != nil {
		t.Fatal(err)
	}
	if dev.Status() != device.StatusMaintenance {
		t.Fatalf("status = %s", dev.Status())
	}
	if _, err := d.LowLevelOp("maintenance_off"); err != nil {
		t.Fatal(err)
	}
	if dev.Status() != device.StatusOnline {
		t.Fatalf("status = %s", dev.Status())
	}
	// Ops outside this site's allowlist are rejected even if implemented.
	if _, err := d.LowLevelOp("recalibrate"); err == nil {
		t.Fatal("recalibrate accepted outside allowlist")
	}
}

func TestDaemonTelemetry(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction})
	env.clk.Advance(15 * time.Second)
	if v := exposed(t, env.reg, `daemon_jobs_total{class="production",state="completed"}`); v != 1 {
		t.Fatalf("jobs_total = %g", v)
	}
	if exposed(t, env.reg, "daemon_sessions_active") != 1 {
		t.Fatal("sessions gauge")
	}
	if got := exposed(t, env.reg, `daemon_job_wait_seconds_count{class="production"}`); got != 1 {
		t.Fatalf("wait histogram count = %g", got)
	}
	out := env.reg.Expose()
	if !strings.Contains(out, "daemon_jobs_total") || !strings.Contains(out, "qpu_up") {
		t.Fatal("exposition incomplete")
	}
}

func TestMeanWaitByClass(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 60), Class: sched.ClassProduction})
	env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	env.clk.Advance(200 * time.Second)
	rep := env.d.AdminStatus()
	if rep.MeanWait["production"] != 0 {
		t.Fatalf("production wait = %s", rep.MeanWait["production"])
	}
	if rep.MeanWait["dev"] < 59*time.Second {
		t.Fatalf("dev wait = %s", rep.MeanWait["dev"])
	}
}

func TestFairShareOrdersWithinClass(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 51})
	d, _ := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x",
		EnablePreemption: true, Order: fairShareOrder{},
	})
	alice, _ := d.OpenSession("alice")
	bob, _ := d.OpenSession("bob")
	// Alice consumes 200 QPU-seconds first.
	hog, _ := d.Submit(alice.Token, SubmitRequest{Program: payload(t, 200), Class: sched.ClassDev})
	clk.Advance(201 * time.Second)
	if st, _ := d.JobStatus(alice.Token, hog.ID); st.State != JobCompleted {
		t.Fatalf("hog = %s", st.State)
	}
	// Occupy the device, then queue alice's job BEFORE bob's.
	d.Submit(alice.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	aliceJob, _ := d.Submit(alice.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	bobJob, _ := d.Submit(bob.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	clk.Advance(101 * time.Second) // blocker finishes; fair-share picks next
	a, _ := d.JobStatus(alice.Token, aliceJob.ID)
	b, _ := d.JobStatus(bob.Token, bobJob.ID)
	if b.State != JobRunning {
		t.Fatalf("bob (least-served) = %s, want running", b.State)
	}
	if a.State != JobQueued {
		t.Fatalf("alice (heavy user) = %s, want queued", a.State)
	}
	// Class priority still beats fairness: alice's production job jumps bob's dev queue.
	clk.Advance(11 * time.Second) // bob's job done; alice's dev job running
	prodJob, _ := d.Submit(alice.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction})
	p, _ := d.JobStatus(alice.Token, prodJob.ID)
	if p.State != JobRunning {
		t.Fatalf("production from heavy user = %s, want running via preemption", p.State)
	}
}

func TestFIFOWithoutFairShare(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 52})
	d, _ := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x"})
	alice, _ := d.OpenSession("alice")
	bob, _ := d.OpenSession("bob")
	hog, _ := d.Submit(alice.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	_ = hog
	aliceJob, _ := d.Submit(alice.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	bobJob, _ := d.Submit(bob.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	clk.Advance(101 * time.Second)
	a, _ := d.JobStatus(alice.Token, aliceJob.ID)
	b, _ := d.JobStatus(bob.Token, bobJob.ID)
	if a.State != JobRunning || b.State != JobQueued {
		t.Fatalf("FIFO order violated: alice=%s bob=%s", a.State, b.State)
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
