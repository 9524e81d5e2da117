package daemon

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hpcqc/internal/device"
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

// TestFleetConcurrentSubmit hammers the daemon from many sessions while a
// separate goroutine advances the shared clock — the race the per-device
// orphan buffer exists for. Run under -race (make test-race); every job must
// reach a terminal state and none may be lost. The fair-share run adds the
// dispatch path that reads the live per-user usage map (under d.mu, inside
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
			s, err := env.d.OpenSession(fmt.Sprintf("user-%d", u))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perSess; i++ {
				class := sched.Class(i % 3)
				if _, err := env.d.Submit(s.Token, SubmitRequest{Program: prog, Class: class}); err != nil {
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
	var routed []*Job
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

// TestCancelRacesDispatchDoesNotResurrect replays the check-then-act window
// between dispatchOnce's queued-state check and startJob: a job cancelled in
// that window must stay cancelled — not flip back to running and later
// complete — and its device task must be withdrawn.
func TestCancelRacesDispatchDoesNotResurrect(t *testing.T) {
	env := newFleetEnv(t, 1, nil)
	ds := env.d.fleet[0]
	s, _ := env.d.OpenSession("alice")
	// Occupy the device so the second job stays queued.
	blocker, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
	j, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})

	// Simulate the racing dispatcher: pop the item (passing the queued
	// check), then let the cancel land before the device submission.
	item := ds.queue.Pop()
	if item == nil || item.Payload.(*Job).ID != j.ID {
		t.Fatalf("popped %+v, want %s", item, j.ID)
	}
	prog := item.Payload.(*Job).prog // read with the check, as dispatchOnce does
	if err := env.d.CancelJob(s.Token, j.ID, false); err != nil {
		t.Fatal(err)
	}
	// Free the device and finish the dispatcher's submission. The daemon
	// forgets a task as it settles it, so the withdrawal is observed where
	// the device reports it: on the task listener, ahead of the daemon.
	if err := env.d.CancelJob(s.Token, blocker.ID, false); err != nil {
		t.Fatal(err)
	}
	terminal := make(map[string]device.TaskState)
	ds.dev.SetTaskListener(func(deviceID, taskID string, state device.TaskState) {
		terminal[taskID] = state
		env.d.onDeviceTask(deviceID, taskID, state)
	})
	taskID, err := ds.dev.Submit(prog)
	if err != nil {
		t.Fatal(err)
	}
	env.d.startJob(ds, item.Payload.(*Job), taskID)

	got, _ := env.d.JobStatus(s.Token, j.ID)
	if got.State != JobCancelled {
		t.Fatalf("cancelled job resurrected: %s", got.State)
	}
	if st := terminal[taskID]; st != device.TaskCancelled {
		t.Fatalf("device task reported %q, want cancelled", st)
	}
	if snap := ds.dev.AdminSnapshot(); snap.Running != "" || snap.QueueLength != 0 {
		t.Fatalf("withdrawn task still on the device: running=%q queued=%d", snap.Running, snap.QueueLength)
	}
	if _, err := ds.dev.TaskStatus(taskID); err == nil {
		t.Fatal("settled task was not forgotten by the device")
	}
	env.clk.Advance(time.Hour)
	got, _ = env.d.JobStatus(s.Token, j.ID)
	if got.State != JobCancelled {
		t.Fatalf("cancelled job completed later: %s", got.State)
	}
	ds.mu.Lock()
	busy := ds.running != nil
	leak := len(ds.byTask) + len(ds.orphans)
	ds.mu.Unlock()
	if busy || leak != 0 {
		t.Fatalf("device state leaked: running=%v byTask+orphans=%d", busy, leak)
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
	env.d.mu.Lock()
	env.d.nextJob++
	ghost := &Job{
		ID: fmt.Sprintf("job-%d", env.d.nextJob), Session: s.Token, User: "alice",
		Class: sched.ClassProduction, Device: ds.id, State: JobQueued,
		SubmittedAt: env.clk.Now(),
	}
	env.d.jobs[ghost.ID] = ghost
	env.d.mu.Unlock()
	if err := ds.queue.Push(env.d.queueItem(ghost)); err != nil {
		t.Fatal(err)
	}
	env.d.mu.Lock()
	ghost.State = JobCancelled
	env.d.mu.Unlock()

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

// TestRouteReservesInflightSlot checks the anti-herding reservation: two
// routes taken before either job reaches a queue (the window concurrent
// submissions race through) must land on different partitions, because the
// first pick's in-flight slot already counts as load for the second.
func TestRouteReservesInflightSlot(t *testing.T) {
	env := newFleetEnv(t, 2, NewLeastLoadedRouter())
	a, err := env.d.pick(sched.ClassTest, "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.d.pick(sched.ClassTest, "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("both pre-enqueue routes picked %s — in-flight load invisible to the router", a.id)
	}
	env.d.routeDone(a)
	env.d.routeDone(b)
	// Released reservations stop counting: the next pick ties back to the
	// first partition.
	c, err := env.d.pick(sched.ClassTest, "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c != env.d.fleet[0] {
		t.Fatalf("after release, route picked %s, want first partition", c.id)
	}
	env.d.routeDone(c)
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
