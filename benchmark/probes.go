package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// Isolated probes: one microbenchmark per layer that cannot be bracketed from
// outside a run — queue extraction at a given backlog depth, one router or
// admission decision, one decode — over the layer's public API alone. They
// are the ns/op and allocs/op the ROADMAP's layer suite asks for, and the
// depth series (d10, d1000, d100000) is what shows whether a pop is flat or
// linear in the backlog.

// stopwatch times the measured part of one probe pass, so that a pass can
// build its state (a 100 000-item queue) off the clock.
type stopwatch struct {
	before  runtime.MemStats
	began   time.Time
	elapsed time.Duration
	mallocs uint64
}

func (s *stopwatch) start() {
	runtime.ReadMemStats(&s.before)
	s.began = time.Now()
}

func (s *stopwatch) stop() {
	s.elapsed = time.Since(s.began)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - s.before.Mallocs
}

// probe is one microbenchmark: pass runs the operation n times between
// sw.start() and sw.stop().
type probe struct {
	name   string
	allocs bool // also report allocs_per_op
	pass   func(n int, sw *stopwatch)
}

// probeBudget is the measured time a probe's last pass must reach.
const probeBudget = 30 * time.Millisecond

// run grows n until one pass fills the budget, like testing.B does, and
// returns that pass's cost per operation.
func (p probe) run(budget time.Duration) (nsPerOp, allocsPerOp float64) {
	var sw stopwatch
	for n := 1; ; {
		p.pass(n, &sw)
		if sw.elapsed >= budget || n >= 1<<22 {
			return float64(sw.elapsed.Nanoseconds()) / float64(n), float64(sw.mallocs) / float64(n)
		}
		if sw.elapsed < budget/16 {
			n *= 8
		} else {
			n = int(1.2*float64(n)*float64(budget)/float64(sw.elapsed)) + 1
		}
	}
}

var probeDepths = []int{10, 1000, 100000}

// deepQueue returns a queue holding depth dev-class items and n spares to
// push back, one per pop, so the depth holds while a pass runs. Items carry
// what every extraction path reads: a duration hint, a deadline, an owner.
func deepQueue(depth, n int) (*sched.ClassQueue, []sched.Item) {
	users := make([]*daemon.Job, 8)
	for i := range users {
		users[i] = &daemon.Job{User: "user" + strconv.Itoa(i)}
	}
	items := make([]sched.Item, depth+n)
	q := sched.NewClassQueue()
	for i := range items {
		items[i] = sched.Item{
			ID: "job-" + strconv.Itoa(i), Class: sched.ClassDev, Enqueued: time.Duration(i) * time.Second,
			ExpectedQPU: time.Duration(10+i*7919%500) * time.Second,
			Deadline:    time.Duration(i)*time.Second + time.Hour,
			Payload:     users[i%len(users)],
		}
		if i < depth {
			_ = q.Push(&items[i])
		}
	}
	return q, items[depth:]
}

// popProbe measures one extraction at a steady depth. Each pop is followed by
// the push that restores the depth, so the figure includes one sched.push.
func popProbe(name string, depth int, pop func(q *sched.ClassQueue) *sched.Item) probe {
	return probe{name: fmt.Sprintf("%s.d%d", name, depth), pass: func(n int, sw *stopwatch) {
		q, spare := deepQueue(depth, n)
		sw.start()
		for i := 0; i < n; i++ {
			pop(q)
			_ = q.Push(&spare[i])
		}
		sw.stop()
	}}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err) // a built-in policy name the repo no longer knows: a harness bug
	}
	return v
}

func buildProbes() []probe {
	probes := []probe{{name: "sched.push", allocs: true, pass: func(n int, sw *stopwatch) {
		q, spare := deepQueue(0, n)
		sw.start()
		for i := 0; i < n; i++ {
			_ = q.Push(&spare[i])
		}
		sw.stop()
	}}}

	urgency := must(daemon.NewPriority("slo-urgency"))
	fairShare := must(daemon.NewOrder("fair-share"))
	served := map[string]float64{}
	for i := 0; i < 8; i++ {
		served["user"+strconv.Itoa(i)] = float64(i * 100)
	}
	// The daemon hands fair-share a fresh copy of the usage map per pop.
	usage := func() map[string]float64 {
		cp := make(map[string]float64, len(served))
		for u, v := range served {
			cp[u] = v
		}
		return cp
	}
	for _, d := range probeDepths {
		probes = append(probes,
			popProbe("sched.pop", d, func(q *sched.ClassQueue) *sched.Item { return q.Pop() }),
			popProbe("sched.pop_by_shortest", d, func(q *sched.ClassQueue) *sched.Item {
				return q.PopBy(sched.ShortestExpectedFirst)
			}),
			popProbe("sched.pop_by_score", d, func(q *sched.ClassQueue) *sched.Item {
				now := 2 * time.Hour
				return q.PopByScore(func(it *sched.Item) float64 { return urgency.Score(it, now) }, nil)
			}),
			popProbe("daemon.order_fair_share", d, func(q *sched.ClassQueue) *sched.Item {
				return fairShare.Pop(q, usage)
			}))
	}
	probes = append(probes, probe{name: "sched.class_loads", pass: func(n int, sw *stopwatch) {
		q, _ := deepQueue(1000, 0)
		sw.start()
		for i := 0; i < n; i++ {
			q.ClassLoads()
		}
		sw.stop()
	}})

	infos := make([]daemon.DeviceInfo, 4)
	for i := range infos {
		infos[i] = daemon.DeviceInfo{ID: "p" + strconv.Itoa(i), Index: i, Status: device.StatusOnline, Queued: i % 3}
	}
	for _, name := range []string{"round-robin", "least-loaded", "class-affinity", "affinity"} {
		r := must(daemon.NewRouter(name))
		job := &daemon.Job{Class: sched.ClassDev}
		probes = append(probes, probe{name: "daemon.router_pick." + name, pass: func(n int, sw *stopwatch) {
			sw.start()
			for i := 0; i < n; i++ {
				r.Pick(job, infos)
			}
			sw.stop()
		}})
	}

	view := admission.View{Devices: 4, Running: 4, ByClass: map[sched.Class]admission.ClassLoad{
		sched.ClassDev: {Queued: 6, OldestAge: time.Minute, QueuedQPUSeconds: 300}}}
	for _, name := range admission.AllPolicies() {
		probes = append(probes, probe{name: "admission.admit." + name, pass: func(n int, sw *stopwatch) {
			p := must(admission.NewPolicy(name))
			sw.start()
			for i := 0; i < n; i++ {
				p.Admit(admission.Request{Class: sched.ClassDev, User: "user0", ExpectedQPUSeconds: 60,
					Now: time.Duration(i) * 30 * time.Second}, view)
			}
			sw.stop()
		}})
	}

	payload := must(loadgen.BuildProgram(2, 100).MarshalJSON())
	spec := qir.DefaultAnalogSpec()
	probes = append(probes,
		probe{name: "qir.decode", allocs: true, pass: func(n int, sw *stopwatch) {
			sw.start()
			for i := 0; i < n; i++ {
				if err := new(qir.Program).UnmarshalJSON(payload); err != nil {
					panic(err)
				}
			}
			sw.stop()
		}},
		probe{name: "qir.validate_cached", pass: func(n int, sw *stopwatch) {
			prog := loadgen.BuildProgram(2, 100)
			sw.start()
			for i := 0; i < n; i++ {
				_ = qir.ValidateCached(prog, &spec)
			}
			sw.stop()
		}},
		probe{name: "simclock.schedule_fire", allocs: true, pass: func(n int, sw *stopwatch) {
			clk := simclock.New()
			sw.start()
			for i := 0; i < n; i++ {
				clk.Schedule(time.Second, "probe", func() {})
				clk.Step()
			}
			sw.stop()
		}},
		probe{name: "device.task_timing_only", allocs: true, pass: func(n int, sw *stopwatch) {
			clk := simclock.New()
			dev := must(device.New(device.Config{Clock: clk, Seed: 1, TimingOnly: true}))
			done := 0
			dev.SetTaskListener(func(string, string, device.TaskState) { done++ })
			prog := loadgen.BuildProgram(2, 100)
			sw.start()
			for i := 0; i < n; i++ {
				if _, err := dev.Submit(prog); err != nil {
					panic(err)
				}
				for done <= i {
					next, _ := clk.NextEventAt()
					clk.RunUntil(next)
				}
			}
			sw.stop()
		}},
		probe{name: "daemon.submit_dispatch", allocs: true, pass: func(n int, sw *stopwatch) {
			clk := simclock.New()
			fleet := must(device.NewFleet(1, device.Config{Clock: clk, Seed: 1, TimingOnly: true}))
			done := 0
			d := must(daemon.NewDaemon(daemon.Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "probe",
				EnablePreemption: true, JobListener: func(ev daemon.JobEvent) {
					if ev.Type == daemon.JobEventFinished {
						done++
					}
				}}))
			sess := must(d.OpenSession("probe"))
			sw.start()
			for i := 0; i < n; i++ {
				if _, err := d.Submit(sess.Token, daemon.SubmitRequest{Program: payload, Class: sched.ClassDev}); err != nil {
					panic(err)
				}
				for done <= i {
					next, _ := clk.NextEventAt()
					clk.RunUntil(next)
				}
			}
			sw.stop()
		}},
		// One op is one job's three lifecycle events.
		probe{name: "loadgen.analyzer_observe", allocs: true, pass: func(n int, sw *stopwatch) {
			an := loadgen.NewAnalyzer(nil)
			ids := jobIDs(n)
			sw.start()
			observeJobs(an, ids)
			sw.stop()
		}},
		probe{name: "loadgen.report_build", pass: func(n int, sw *stopwatch) {
			an := loadgen.NewAnalyzer(nil)
			observeJobs(an, jobIDs(5000))
			sw.start()
			for i := 0; i < n; i++ {
				an.Report()
			}
			sw.stop()
		}},
		probe{name: "telemetry.expose", allocs: true, pass: func(n int, sw *stopwatch) {
			// The families a served node registers, fleet and daemon.
			clk, reg := simclock.New(), telemetry.NewRegistry()
			fleet := must(device.NewFleet(serveDevices, device.Config{Clock: clk, Seed: 1, Registry: reg, TimingOnly: true}))
			must(daemon.NewDaemon(daemon.Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "probe", Registry: reg, ProgramCache: 64}))
			sw.start()
			for i := 0; i < n; i++ {
				if reg.Expose() == "" {
					panic("empty exposition")
				}
			}
			sw.stop()
		}},
		probe{name: "telemetry.bound_observe", pass: func(n int, sw *stopwatch) {
			h := telemetry.NewRegistry().MustHistogram("probe_seconds", "probe", []float64{1, 5, 15, 60, 300, 1800, 7200})
			b := h.Bind(telemetry.Labels{"class": "dev"})
			sw.start()
			for i := 0; i < n; i++ {
				b.Observe(float64(i % 9000))
			}
			sw.stop()
		}},
		// One op is one job's six spans, validate to the completed mark.
		probe{name: "trace.recorder_observe", allocs: true, pass: func(n int, sw *stopwatch) {
			rec := trace.NewFlightRecorder(trace.DefaultFlightCapacity)
			ids := jobIDs(n)
			stages := []trace.Stage{trace.StageValidate, trace.StageAdmission, trace.StageRoute,
				trace.StageQueued, trace.StageExecute, trace.MarkCompleted}
			sw.start()
			for i, id := range ids {
				at := time.Duration(i) * time.Second
				for _, st := range stages {
					rec.Observe(trace.Span{Job: id, Stage: st, Class: "dev", Device: "p0", Start: at, End: at + time.Second})
				}
			}
			sw.stop()
		}})
	return probes
}

func jobIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "job-" + strconv.Itoa(i+1)
	}
	return ids
}

// observeJobs feeds the analyzer a submitted, started and finished event per
// job.
func observeJobs(an *loadgen.Analyzer, ids []string) {
	for i, id := range ids {
		at := time.Duration(i) * time.Minute
		j := daemon.Job{ID: id, User: "user0", Class: sched.ClassDev, Device: "p0", ExpectedQPUSeconds: 60,
			State: daemon.JobQueued, SubmittedAt: at}
		an.Observe(daemon.JobEvent{Type: daemon.JobEventSubmitted, At: at, Job: j})
		j.State, j.StartedAt = daemon.JobRunning, at+time.Second
		an.Observe(daemon.JobEvent{Type: daemon.JobEventStarted, At: j.StartedAt, Job: j})
		j.State, j.FinishedAt = daemon.JobCompleted, at+time.Minute
		an.Observe(daemon.JobEvent{Type: daemon.JobEventFinished, At: j.FinishedAt, Job: j})
	}
}

// probeMetricNames lists what the probes report, in order.
func probeMetricNames() []string {
	var names []string
	for _, p := range buildProbes() {
		names = append(names, p.name+".ns_per_op")
		if p.allocs {
			names = append(names, p.name+".allocs_per_op")
		}
	}
	return names
}

// runProbes runs every probe and writes its figures into m.
func (h *harness) runProbes(m map[string]float64) {
	budget := probeBudget
	if h.quick {
		budget = 200 * time.Microsecond
	}
	for _, p := range buildProbes() {
		ns, allocs := p.run(budget)
		m[p.name+".ns_per_op"] = ns
		if p.allocs {
			m[p.name+".allocs_per_op"] = allocs
		}
	}
}
