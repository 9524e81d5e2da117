package daemon

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/mint"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// fleetEnv is a daemon over an n-partition fleet on a shared simclock.
type fleetEnv struct {
	clk   *simclock.Clock
	fleet *device.Fleet
	d     *Daemon
}

func newFleetEnv(t *testing.T, n int, router Router) *fleetEnv {
	return newFleetEnvOrdered(t, n, router, "fifo", "constant")
}

func newFleetEnvOrdered(t *testing.T, n int, router Router, order, priority string) *fleetEnv {
	t.Helper()
	clk := simclock.New()
	fleet, err := device.NewFleet(n, device.Config{Clock: clk, Seed: 31, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPriority(priority)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Router: router, Clock: clk, Order: o, Priority: p,
		AdminToken: "admin", EnablePreemption: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fleetEnv{clk: clk, fleet: fleet, d: d}
}

// drain advances simulated time until every submitted job is terminal or the
// bound is exceeded.
func (env *fleetEnv) drain(t *testing.T, bound time.Duration) {
	t.Helper()
	deadline := env.clk.Now() + bound
	for env.clk.Now() < deadline {
		done := true
		for _, j := range env.d.ListJobs() {
			if j.State == JobQueued || j.State == JobRunning {
				done = false
				break
			}
		}
		if done {
			return
		}
		env.clk.Advance(5 * time.Second)
	}
	t.Fatalf("jobs not drained within %s: %+v", bound, env.d.AdminStatus().QueuedByName)
}

// TestFleetSpreadsJobsAcrossDevices checks that the round-robin router lands
// concurrent-in-time jobs on distinct partitions, visible in the per-device
// admin report.
func TestFleetSpreadsJobsAcrossDevices(t *testing.T) {
	env := newFleetEnv(t, 3, NewRoundRobinRouter())
	s, _ := env.d.OpenSession("alice")
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassTest})
		if err != nil {
			t.Fatal(err)
		}
		if j.State != JobRunning {
			t.Fatalf("job %d = %s, want running on its own partition", i, j.State)
		}
		seen[j.Device] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 jobs used %d partitions: %v", len(seen), seen)
	}
	rep := env.d.AdminStatus()
	if len(rep.Devices) != 3 {
		t.Fatalf("report has %d devices", len(rep.Devices))
	}
	for _, dr := range rep.Devices {
		if dr.Running == "" {
			t.Fatalf("partition %s idle while fleet loaded: %+v", dr.ID, rep.Devices)
		}
	}
	env.drain(t, 5*time.Minute)
}

// TestFleetConcurrentSubmit hammers the daemon from many sessions, each
// entering the world through the clock's lock, while a separate goroutine
// advances the shared clock, so completions interleave with submissions.
// Run under -race (make test-race); every job must reach a terminal state,
// none may be lost, and every completed record must have started — no
// earlier than it was submitted, no later than it finished. The fair-share
// run adds the dispatch path that reads the live per-user usage map (inside
// the queue's rank index) while completions on other partitions update it.
func TestFleetConcurrentSubmit(t *testing.T) {
	t.Run("fifo", func(t *testing.T) { fleetConcurrentSubmit(t, "fifo", "constant") })
	t.Run("fair-share/slo-urgency", func(t *testing.T) { fleetConcurrentSubmit(t, "fair-share", "slo-urgency") })
}

func fleetConcurrentSubmit(t *testing.T, order, priority string) {
	env := newFleetEnvOrdered(t, 4, NewLeastLoadedRouter(), order, priority)
	const (
		sessions = 6
		perSess  = 8
	)
	prog := payload(t, 10)
	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				env.clk.Advance(time.Second)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, sessions*perSess)
	for u := 0; u < sessions; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			env.clk.Lock()
			s, err := env.d.OpenSession(fmt.Sprintf("user-%d", u))
			env.clk.Unlock()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perSess; i++ {
				class := sched.Class(i % 3)
				env.clk.Lock()
				_, err := env.d.Submit(s.Token, SubmitRequest{Program: prog, Class: class})
				env.clk.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(stop)
	ticker.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	env.drain(t, 2*time.Hour)
	jobs := env.d.ListJobs()
	if len(jobs) != sessions*perSess {
		t.Fatalf("jobs recorded = %d, want %d", len(jobs), sessions*perSess)
	}
	for _, j := range jobs {
		if j.State != JobCompleted {
			t.Fatalf("job %s on %s ended %s (%s)", j.ID, j.Device, j.State, j.Error)
		}
		if !(j.SubmittedAt <= j.StartedAt && j.StartedAt <= j.FinishedAt) {
			t.Fatalf("job %s on %s: submitted %v, started %v, finished %v — out of order",
				j.ID, j.Device, j.SubmittedAt, j.StartedAt, j.FinishedAt)
		}
	}
}

// TestFleetPreemptionConfinedToDevice pins dev-class jobs to two partitions,
// then sends a production job to one of them: only that partition's job may
// be preempted.
func TestFleetPreemptionConfinedToDevice(t *testing.T) {
	env := newFleetEnv(t, 2, NewRoundRobinRouter())
	ids := env.fleet.IDs()
	s, _ := env.d.OpenSession("ops")
	victim, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 400), Class: sched.ClassDev, Device: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 400), Class: sched.ClassDev, Device: ids[1]})
	if err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(5 * time.Second)
	prod, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction, Device: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := env.d.JobStatus(s.Token, prod.ID)
	v, _ := env.d.JobStatus(s.Token, victim.ID)
	b, _ := env.d.JobStatus(s.Token, bystander.ID)
	if p.State != JobRunning || p.Device != ids[0] {
		t.Fatalf("production = %s on %s", p.State, p.Device)
	}
	if v.State != JobQueued || v.Preemptions != 1 {
		t.Fatalf("victim = %s preemptions=%d", v.State, v.Preemptions)
	}
	if b.State != JobRunning || b.Preemptions != 0 {
		t.Fatalf("bystander on %s = %s preemptions=%d — preemption leaked across partitions",
			b.Device, b.State, b.Preemptions)
	}
	env.drain(t, time.Hour)
}

// TestFleetMaintenanceFailover takes one partition into maintenance: the
// router must steer new work to the healthy partitions, and jobs already
// queued on the dark partition must wait (not fail) until it returns.
func TestFleetMaintenanceFailover(t *testing.T) {
	env := newFleetEnv(t, 2, NewLeastLoadedRouter())
	ids := env.fleet.IDs()
	s, _ := env.d.OpenSession("alice")
	// Strand one job on partition 0, then take it down.
	stranded, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 30), Class: sched.ClassDev, Device: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	dev0, _ := env.fleet.Get(ids[0])
	dev0.StartMaintenance()
	// New work must route around the dark partition and still complete.
	var routed []Job
	for i := 0; i < 4; i++ {
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassTest})
		if err != nil {
			t.Fatal(err)
		}
		if j.Device != ids[1] {
			t.Fatalf("job routed to %s during maintenance of %s", j.Device, ids[0])
		}
		routed = append(routed, j)
	}
	env.clk.Advance(10 * time.Minute)
	for _, j := range routed {
		got, _ := env.d.JobStatus(s.Token, j.ID)
		if got.State != JobCompleted {
			t.Fatalf("routed job %s = %s", j.ID, got.State)
		}
	}
	// The stranded job survived the window (running or queued, not failed)
	// and completes once maintenance ends.
	got, _ := env.d.JobStatus(s.Token, stranded.ID)
	if got.State == JobFailed || got.State == JobCancelled {
		t.Fatalf("stranded job = %s", got.State)
	}
	if _, err := env.d.LowLevelOpDevice("maintenance_off", ids[0]); err == nil {
		t.Fatal("maintenance_off passed outside allowlist")
	}
	dev0.EndMaintenance()
	env.d.dispatchDevice(env.d.byDevice[ids[0]])
	env.clk.Advance(10 * time.Minute)
	got, _ = env.d.JobStatus(s.Token, stranded.ID)
	if got.State != JobCompleted {
		t.Fatalf("stranded job after maintenance = %s", got.State)
	}
}

// TestFleetThroughputScaling is the acceptance check behind
// BenchmarkFleetDispatch: the same batch of jobs must finish at least 2×
// faster in simulated time on a 4-partition fleet than on one partition.
func TestFleetThroughputScaling(t *testing.T) {
	makespan := func(devices int) time.Duration {
		env := newFleetEnv(t, devices, NewLeastLoadedRouter())
		s, _ := env.d.OpenSession("load")
		for i := 0; i < 32; i++ {
			if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassTest}); err != nil {
				t.Fatal(err)
			}
		}
		env.drain(t, 24*time.Hour)
		return env.clk.Now()
	}
	one := makespan(1)
	four := makespan(4)
	if four*2 > one {
		t.Fatalf("4-device makespan %s not ≥2× faster than 1-device %s", four, one)
	}
}

// TestRouterPolicies exercises the three routing policies directly.
func TestRouterPolicies(t *testing.T) {
	infos := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline, Queued: 3, Busy: true},
		{ID: "p1", Index: 1, Status: device.StatusOnline, Queued: 0},
		{ID: "p2", Index: 2, Status: device.StatusOnline, Queued: 1, Busy: true},
	}
	rr := NewRoundRobinRouter()
	got := []int{rr.Pick(&Job{}, infos), rr.Pick(&Job{}, infos), rr.Pick(&Job{}, infos), rr.Pick(&Job{}, infos)}
	if got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 0 {
		t.Fatalf("round-robin picks = %v", got)
	}
	ll := NewLeastLoadedRouter()
	if idx := ll.Pick(&Job{}, infos); idx != 1 {
		t.Fatalf("least-loaded picked %d, want 1", idx)
	}
	ca := NewClassAffinityRouter()
	if idx := ca.Pick(&Job{Class: sched.ClassProduction}, infos); idx != 0 {
		t.Fatalf("class-affinity production home = %d, want 0", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassTest}, infos); idx != 1 {
		t.Fatalf("class-affinity test home = %d, want 1", idx)
	}
	// Dev's home p2 is saturated (running + backlog) while p1 sits idle, so
	// the saturation spill overflows dev there instead of queueing it.
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, infos); idx != 1 {
		t.Fatalf("class-affinity dev with saturated home = %d, want 1 (idle spill)", idx)
	}

	// A 2-partition fleet spills dev onto the non-production partition —
	// never back onto production's home.
	two := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline},
		{ID: "p1", Index: 1, Status: device.StatusOnline, Queued: 5},
	}
	if idx := ca.Pick(&Job{Class: sched.ClassProduction}, two); idx != 0 {
		t.Fatalf("2-fleet production home = %d, want 0", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, two); idx != 1 {
		t.Fatalf("2-fleet dev spill = %d, want 1 (not production's partition)", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, two[:1]); idx != 0 {
		t.Fatalf("1-fleet dev = %d, want the only partition", idx)
	}

	// Maintenance devices are skipped while any alternative exists…
	infos[1].Status = device.StatusMaintenance
	got = nil
	for i := 0; i < 4; i++ {
		got = append(got, rr.Pick(&Job{}, infos))
	}
	for _, idx := range got {
		if idx == 1 {
			t.Fatalf("round-robin routed to maintenance partition: %v", got)
		}
	}
	if idx := ll.Pick(&Job{}, infos); idx != 2 {
		t.Fatalf("least-loaded with p1 down picked %d, want 2", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassTest}, infos); idx == 1 {
		t.Fatal("class-affinity routed to maintenance home")
	}
	// …and the whole-fleet-down case still yields a valid index.
	infos[0].Status = device.StatusMaintenance
	infos[2].Status = device.StatusMaintenance
	for _, r := range []Router{rr, ll, ca} {
		if idx := r.Pick(&Job{Class: sched.ClassDev}, infos); idx < 0 || idx >= len(infos) {
			t.Fatalf("%s picked out-of-range %d with fleet down", r.Name(), idx)
		}
	}
}

// TestCancelRacesDispatchDoesNotResurrect: a job cancelled while it waits
// for the partition stays cancelled when the partition frees up — dispatch
// never starts it, later or at all — and leaves no device task and no
// partition state behind. (Cancel and dispatch are steps of one world, so a
// cancel lands wholly before the dispatch that would have popped the job.)
func TestCancelRacesDispatchDoesNotResurrect(t *testing.T) {
	env := newFleetEnv(t, 1, nil)
	ds := env.d.fleet[0]
	s, _ := env.d.OpenSession("alice")
	// Occupy the device so the second job stays queued.
	blocker, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	j, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err := env.d.CancelJob(s.Token, j.ID, false); err != nil {
		t.Fatal(err)
	}
	// Free the device: its settlement dispatches the partition.
	started := 0
	ds.dev.SetTaskListener(func(deviceID, taskID string, state device.TaskState) {
		env.d.onDeviceTask(ds, taskID, state)
		if ds.running != nil {
			started++
		}
	})
	if err := env.d.CancelJob(s.Token, blocker.ID, false); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(time.Hour)
	got, _ := env.d.JobStatus(s.Token, j.ID)
	if got.State != JobCancelled || got.StartedAt != 0 || started != 0 {
		t.Fatalf("cancelled job resurrected: %s, started at %v, %d starts", got.State, got.StartedAt, started)
	}
	if snap := ds.dev.AdminSnapshot(); snap.Running != "" || snap.QueueLength != 0 {
		t.Fatalf("task left on the device: running=%q queued=%d", snap.Running, snap.QueueLength)
	}
	if ds.running != nil || ds.queue.Len() != 0 {
		t.Fatalf("partition state leaked: running=%v queued=%d", ds.running != nil, ds.queue.Len())
	}
}

// TestCancelledQueuedJobDoesNotPreempt replays the other half of the
// cancel/dispatch race: a production job cancelled while its queue entry is
// still present (CancelJob flips the state before removing the entry) must
// not preempt a running lower-class job.
func TestCancelledQueuedJobDoesNotPreempt(t *testing.T) {
	env := newFleetEnv(t, 1, nil)
	ds := env.d.fleet[0]
	s, _ := env.d.OpenSession("alice")
	devJob, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 500), Class: sched.ClassDev})

	// A production job whose cancellation has updated the state but not yet
	// removed the queue entry.
	ghost := &Job{sess: s, User: "alice",
		Class: sched.ClassProduction, Device: ds.id, State: JobQueued,
		SubmittedAt: env.clk.Now(),
	}
	ghost.seq = env.d.jobs.Push(ghost)
	ghost.ID = mint.Spell(mint.JobPrefix, ghost.seq)
	if err := ds.queue.Push(env.d.queueItem(ghost)); err != nil {
		t.Fatal(err)
	}
	ghost.State = JobCancelled

	env.d.dispatchDevice(ds)

	dv, _ := env.d.JobStatus(s.Token, devJob.ID)
	if dv.State != JobRunning || dv.Preemptions != 0 {
		t.Fatalf("dev job = %s preemptions=%d — cancelled ghost preempted it", dv.State, dv.Preemptions)
	}
	if n := ds.queue.Len(); n != 0 {
		t.Fatalf("stale queue entry not dropped: len=%d", n)
	}
	if env.d.AdminStatus().Preemptions != 0 {
		t.Fatal("preemption counter inflated by cancelled job")
	}
}

// TestConcurrentSubmitsLandOnePerPartition is the anti-herding check: N
// submissions racing into an idle N-partition least-loaded fleet must land
// one per partition, because each submission is one entry into the world,
// whole before the next — and a job the partition has popped is running by
// the time the next snapshot reads it. Run under -race by make test-race.
func TestConcurrentSubmitsLandOnePerPartition(t *testing.T) {
	const n = 4
	env := newFleetEnv(t, n, NewLeastLoadedRouter())
	prog := payload(t, 400)
	start := make(chan struct{})
	devices := make(chan string, n)
	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		s, err := env.d.OpenSession(fmt.Sprintf("user-%d", u))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			env.clk.Lock()
			j, err := env.d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassTest})
			env.clk.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			devices <- j.Device
		}()
	}
	close(start)
	wg.Wait()
	close(devices)
	seen := make(map[string]int)
	for id := range devices {
		seen[id]++
	}
	if len(seen) != n {
		t.Fatalf("%d concurrent submits landed on %v — want one per partition", n, seen)
	}
}

// TestFleetRejectsUnknownPin checks explicit device pins are validated.
func TestFleetRejectsUnknownPin(t *testing.T) {
	env := newFleetEnv(t, 2, nil)
	s, _ := env.d.OpenSession("alice")
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev, Device: "nope"}); err == nil {
		t.Fatal("unknown device pin accepted")
	}
}

// TestFleetDuplicateIDsRejected checks NewDaemon validates ID uniqueness.
func TestFleetDuplicateIDsRejected(t *testing.T) {
	clk := simclock.New()
	a, _ := device.New(device.Config{Clock: clk, Seed: 1, ID: "same"})
	b, _ := device.New(device.Config{Clock: clk, Seed: 2, ID: "same"})
	if _, err := NewDaemon(Config{Devices: []*device.Device{a, b}, Clock: clk, AdminToken: "x"}); err == nil {
		t.Fatal("duplicate device IDs accepted")
	}
}
