package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/trace"
)

// The traced replay driver: the harness's own replay loop over the public
// APIs `qcload replay` is built from, with a span around each call into a
// layer and timing decorators on the interfaces daemon.Config accepts. It
// mirrors loadgen.Replay step for step; the correctness gate proves it by
// requiring its report digest to equal loadgen.Replay's for the same trace and
// configuration, which also proves the decorators changed no decision.

// replayParams is one replay configuration, as the qcload flags spell it.
type replayParams struct {
	devices   int
	router    string
	scheduler string
	admission string
	priority  string
	seed      int64
	cache     int
	setup     float64
}

// config renders the parameters for loadgen.Replay, the reference the traced
// driver is checked against. Tracing is on, as it is by default in qcload.
func (p replayParams) config() loadgen.ReplayConfig {
	return loadgen.ReplayConfig{
		Devices: p.devices, Router: p.router, Scheduler: p.scheduler, Admission: p.admission,
		Priority: p.priority, Seed: p.seed, Tracing: true, ProgramCache: p.cache, SetupSeconds: p.setup,
	}
}

// --- timing decorators -----------------------------------------------------

type timedRouter struct {
	daemon.Router
	tr *tracer
}

func (r timedRouter) Pick(j *daemon.Job, infos []daemon.DeviceInfo) int {
	id := r.tr.begin(lyRoutePick, 0)
	i := r.Router.Pick(j, infos)
	r.tr.end(id)
	return i
}

// timedAdmit times Policy.Admit. The daemon discovers admission.Observer and
// admission.Viewless by type assertion, so the wrapper must expose exactly the
// optional interfaces its policy has, or the daemon would build views the
// policy never reads or stop feeding it signals: hence the four shapes.
type timedAdmit struct {
	admission.Policy
	tr *tracer
}

func (a timedAdmit) Admit(req admission.Request, view admission.View) admission.Decision {
	id := a.tr.begin(lyAdmit, 0)
	dec := a.Policy.Admit(req, view)
	a.tr.end(id)
	return dec
}

type timedAdmitObserver struct {
	timedAdmit
	admission.Observer
}

type timedAdmitViewless struct{ timedAdmit }

func (timedAdmitViewless) Viewless() {}

type timedAdmitObserverViewless struct{ timedAdmitObserver }

func (timedAdmitObserverViewless) Viewless() {}

func wrapAdmission(p admission.Policy, tr *tracer) admission.Policy {
	base := timedAdmit{Policy: p, tr: tr}
	obs, isObserver := p.(admission.Observer)
	_, isViewless := p.(admission.Viewless)
	switch {
	case isObserver && isViewless:
		return timedAdmitObserverViewless{timedAdmitObserver{base, obs}}
	case isObserver:
		return timedAdmitObserver{base, obs}
	case isViewless:
		return timedAdmitViewless{base}
	}
	return base
}

// timedOrder times OrderPolicy.Pop. It is installed under the constant
// priority only: with any other priority the daemon never calls Pop, and
// finds the order's tie-break comparator through an unexported interface a
// wrapper cannot forward.
type timedOrder struct {
	daemon.OrderPolicy
	tr *tracer
}

func (o timedOrder) Pop(q *sched.ClassQueue, usage func() map[string]float64) *sched.Item {
	id := o.tr.begin(lyOrderPop, 0)
	it := o.OrderPolicy.Pop(q, usage)
	o.tr.end(id)
	if it != nil {
		o.tr.setJob(id, jobNumber(it.ID))
	}
	return it
}

// countedPriority counts PriorityPolicy.Score calls. A score is a few
// nanoseconds and is called once per queued item per dispatch, so it gets a
// count, not a span.
type countedPriority struct {
	daemon.PriorityPolicy
	calls *int64
}

func (p countedPriority) Score(it *sched.Item, now time.Duration) float64 {
	*p.calls++
	return p.PriorityPolicy.Score(it, now)
}

// jobNumber extracts N from the daemon's "job-N" identifiers; 0 when the
// string is not one.
func jobNumber(id string) int64 {
	if len(id) < 5 {
		return 0
	}
	n, _ := strconv.ParseInt(id[4:], 10, 64)
	return n
}

// --- the driver --------------------------------------------------------------

// writeReport renders a report exactly as qcload prints it.
func writeReport(rep any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tracedReplay replays tracePath under p on the calling goroutine, recording
// spans into tr, and returns the report bytes and the number of priority
// scores computed.
func tracedReplay(tr *tracer, tracePath string, p replayParams) (report []byte, scoreCalls int64, err error) {
	sp := tr.begin(lyReadTrace, 0)
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, 0, err
	}
	trc, err := loadgen.ReadTrace(f)
	_ = f.Close()
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}

	// Prepare: validate, resolve classes, build each distinct program once,
	// find the submitters in first-appearance order.
	sp = tr.begin(lyPrepare, 0)
	if err := trc.Validate(); err != nil {
		return nil, 0, err
	}
	classes := make([]sched.Class, len(trc.Records))
	payloads := make([][]byte, len(trc.Records))
	built := make(map[[2]int][]byte)
	seen := make(map[string]bool)
	var users []string
	for i := range trc.Records {
		rec := &trc.Records[i]
		if classes[i], err = rec.ParsedClass(); err != nil {
			return nil, 0, err
		}
		key := [2]int{rec.Qubits, rec.Shots}
		if built[key] == nil {
			if built[key], err = loadgen.BuildProgram(rec.Qubits, rec.Shots).MarshalJSON(); err != nil {
				return nil, 0, err
			}
		}
		payloads[i] = built[key]
		if !seen[rec.User] {
			seen[rec.User] = true
			users = append(users, rec.User)
		}
	}
	tr.end(sp)

	sp = tr.begin(lyDaemonNew, 0)
	router, err := daemon.NewRouter(p.router)
	if err != nil {
		return nil, 0, err
	}
	order, err := daemon.NewOrder(p.scheduler)
	if err != nil {
		return nil, 0, err
	}
	admitter, err := admission.NewPolicy(p.admission)
	if err != nil {
		return nil, 0, err
	}
	priority, err := daemon.NewPriority(p.priority)
	if err != nil {
		return nil, 0, err
	}
	if p.priority == "" || p.priority == "constant" {
		order = timedOrder{order, tr}
	} else {
		priority = countedPriority{priority, &scoreCalls}
	}
	clk := simclock.New()
	fleet, err := device.NewFleet(p.devices, device.Config{Clock: clk, Seed: p.seed, TimingOnly: true})
	if err != nil {
		return nil, 0, err
	}
	an := loadgen.NewAnalyzer(nil)
	d, err := daemon.NewDaemon(daemon.Config{
		Devices:          fleet.Devices(),
		Router:           timedRouter{router, tr},
		Order:            order,
		Admission:        wrapAdmission(admitter, tr),
		Priority:         priority,
		Clock:            clk,
		AdminToken:       "loadgen",
		EnablePreemption: true,
		Seed:             p.seed,
		ProgramCache:     p.cache,
		SetupSeconds:     p.setup,
		JobListener: func(ev daemon.JobEvent) {
			id := tr.begin(lyAnalyzerObserve, jobNumber(ev.Job.ID))
			an.Observe(ev)
			tr.end(id)
		},
		SpanListener: func(s trace.Span) {
			id := tr.begin(lyAnalyzerSpan, jobNumber(s.Job))
			an.ObserveSpan(s)
			tr.end(id)
		},
		PipelineSpansOnly: true,
	})
	if err != nil {
		return nil, 0, err
	}
	tokens := make(map[string]string, len(users))
	for _, user := range users {
		s, err := d.OpenSession(user)
		if err != nil {
			return nil, 0, err
		}
		tokens[user] = s.Token
	}
	tr.end(sp)

	// Run: one arrival event per record, then the clock to the horizon and on
	// until the backlog drains, jumping from event to event.
	sp = tr.begin(lyClockRun, 0)
	submitErrs := 0
	for i := range trc.Records {
		rec := &trc.Records[i]
		req := daemon.SubmitRequest{
			Program: payloads[i], Class: classes[i], Pattern: sched.Pattern(rec.Pattern), Source: "loadgen",
			ExpectedQPUSeconds: rec.ExpectedQPUSeconds, DeadlineSeconds: rec.DeadlineSeconds,
		}
		token, job := tokens[rec.User], int64(i+1)
		clk.ScheduleAt(rec.At(), "loadgen-arrival", func() {
			id := tr.begin(lySubmit, job)
			_, err := d.Submit(token, req)
			tr.end(id)
			var rej *daemon.RejectedError
			if err != nil && !errors.As(err, &rej) {
				submitErrs++
			}
		})
	}
	horizon := trc.Header.Horizon()
	if n := len(trc.Records); n > 0 {
		if last := trc.Records[n-1].At(); last >= horizon {
			horizon = last + time.Microsecond
		}
	}
	clk.RunUntil(horizon)
	deadline := horizon + 14*24*time.Hour
	for {
		submitted, terminal := an.Counts()
		if terminal >= submitted {
			break
		}
		next, ok := clk.NextEventAt()
		if !ok || clk.Now() >= deadline {
			return nil, 0, fmt.Errorf("traced replay %s/%s/%s: backlog did not drain (%d/%d jobs terminal)",
				p.router, p.scheduler, p.admission, terminal, submitted)
		}
		clk.RunUntil(min(next, deadline))
	}
	tr.end(sp)

	sp = tr.begin(lyReport, 0)
	rep := an.Report()
	rep.Router, rep.Scheduler, rep.Admission = p.router, p.scheduler, p.admission
	if p.priority != "" && p.priority != "constant" {
		rep.Priority = p.priority
	}
	rep.SubmitErrors = submitErrs
	for _, dev := range fleet.Devices() {
		dv := rep.PerDevice[dev.ID()]
		if dv == nil {
			dv = &loadgen.DeviceSLO{}
			rep.PerDevice[dev.ID()] = dv
		}
		dv.Utilization = dev.Utilization()
	}
	tr.end(sp)

	sp = tr.begin(lyMarshal, 0)
	report, err = writeReport(rep)
	tr.end(sp)
	return report, scoreCalls, err
}
