package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/trace"
)

// ReplayConfig parameterizes one deterministic trace replay.
type ReplayConfig struct {
	// Devices sizes the fleet; 0 means the default, 4, and a negative size
	// is an error.
	Devices int
	// Router, Scheduler, Admission and Priority are the policy tuple, each a
	// spec on its axis's registry (daemon.Routers, daemon.Orders,
	// admission.Policies, daemon.Priorities; "" = that axis's default).
	// Arrivals the admission policy rejects appear in the report as shed
	// work, never as submit errors. Priority composes with Scheduler; under
	// its default — the identity policy — reports stay byte-identical to a
	// replay without the axis and omit the priority field.
	Router    string
	Scheduler string
	Admission string
	Priority  string
	// Seed drives the fleet and daemon randomness. The same trace and seed
	// produce bit-identical schedule decisions and reports.
	Seed int64
	// RateScale is the in-memory arrival-rate multiplier: every recorded
	// arrival offset (integer microseconds) is divided by the scale, so a
	// scale of 2 compresses the trace's day of arrivals into twelve hours —
	// twice the offered load from the same records, with zero extra RNG
	// draws and no trace rewrite. 0 and 1 both mean "as recorded" and keep
	// the replay byte-identical to an unscaled one; the saturation search
	// probes knees by re-replaying the shared trace under varying scales.
	RateScale float64
	// DisablePreemption turns production preemption off for this replay —
	// the sweep's preemption axis. The default (false) preserves the
	// preemptive dispatch every prior report was produced under.
	DisablePreemption bool
	// ShotScale multiplies the fleet's shot rate — device speed — so a
	// scale of 2 halves every job's service time. 0 and 1 both mean the
	// canonical 1 Hz spec and keep the replay byte-identical to an
	// unscaled one.
	ShotScale float64
	// ProgramCache sizes each partition's calibration-warm program cache
	// (entries per partition). Zero — the default — disables caching, and the
	// report stays byte-identical to a cache-less replay; non-zero adds
	// cache hit/miss accounting (and, with the affinity router, warm-steered
	// placement) to the run.
	ProgramCache int
	// SetupSeconds is the cold-setup occupancy a program-cache miss charges
	// the device, in QPU seconds. Requires ProgramCache > 0.
	SetupSeconds float64
	// DrainGrace bounds how far past the trace horizon the replay advances
	// waiting for the backlog to drain (default 14 days of simulation time).
	DrainGrace time.Duration
	// Tracing turns on simulation-time span emission: the report then carries
	// per-class per-stage latency attribution (ClassSLO.Stages). Spans are
	// deterministic, so tracing does not perturb schedule decisions or report
	// byte-stability — it only adds the stage breakdown.
	Tracing bool
	// SpanListener, when non-nil, additionally receives every emitted span
	// (implies Tracing) — the hook `qcload trace export` uses to capture a
	// replay into a flight recorder for Chrome trace-event export.
	SpanListener trace.Listener
	// JobListener, when non-nil, additionally receives every job lifecycle
	// event, after the analyzer: the hook a schedule log attaches to.
	JobListener func(daemon.JobEvent)
}

// stamp writes the replay's coordinates on every axis into rep: the policy
// triple always, and each later axis only off its default — so a report from
// before an axis existed keeps its bytes when that axis is left alone. It is
// the single statement of that rule: drain stamps reports with it, the
// frontier points (and the tests' FindCell) derive what to look for from it.
func (cfg *ReplayConfig) stamp(rep *Report) {
	rep.Router, rep.Scheduler, rep.Admission = cfg.Router, cfg.Scheduler, cfg.Admission
	if cfg.Priority != daemon.Priorities.Default() {
		rep.Priority = cfg.Priority
	}
	if cfg.DisablePreemption {
		rep.Preemption = "off"
	}
	if cfg.RateScale != 1 {
		rep.RateScale = cfg.RateScale
	}
	if cfg.ShotScale != 1 {
		rep.ShotScale = cfg.ShotScale
	}
}

// label names the replay in error messages by the same coordinates, plus the
// fleet size: enough to tell which sweep cell or saturation probe failed.
func (cfg *ReplayConfig) label() string {
	var at Report
	cfg.stamp(&at)
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s", at.Router, at.Scheduler, at.Admission)
	if at.Priority != "" {
		b.WriteString("/" + at.Priority)
	}
	if at.Preemption != "" {
		b.WriteString("/preempt=" + at.Preemption)
	}
	fmt.Fprintf(&b, " fleet=%d", cfg.Devices)
	if at.RateScale != 0 {
		fmt.Fprintf(&b, " rate=%g", at.RateScale)
	}
	if at.ShotScale != 0 {
		fmt.Fprintf(&b, " shot=%g", at.ShotScale)
	}
	return b.String()
}

// analyzerPool recycles SLO analyzers (their maps, stage sample buffers and
// jobTrack slabs) across replay cells.
var analyzerPool = sync.Pool{New: func() any { return NewAnalyzer(nil) }}

// reclaimEvery is how many arrivals pass between the replay cursor's
// Daemon.Release calls: small enough that the terminal records held between
// two calls are noise beside the analyzer's per-job samples, large enough
// that the call's fixed cost (a lock, a slice reset) vanishes per job.
const reclaimEvery = 1024

// Replay submits every trace record at its recorded arrival instant against
// a fresh fleet on a fresh virtual clock, runs the clock to completion, and
// returns the SLO report. Everything executes on the calling goroutine, so
// event order — and therefore every schedule decision — is a pure function
// of (trace, config).
func Replay(tr *Trace, cfg ReplayConfig) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return replayValidated(tr, cfg)
}

// replayValidated is Replay of a validated trace: sweeps and saturation
// searches validate once and share the trace read-only.
func replayValidated(tr *Trace, cfg ReplayConfig) (*Report, error) {
	r, err := newReplayRun(tr.Header, tr.record, cfg)
	if err != nil {
		return nil, err
	}
	return r.run()
}

// record is a validated trace as a replay's arrival source.
func (t *Trace) record(i int, rec *Record) error {
	*rec = t.Records[i]
	return nil
}

// ReplayReader is Replay of a trace read as the replay runs: each record is
// decoded and checked when the clock asks for its arrival, so the run holds
// the jobs in flight, not the trace. Its report is Replay's of the same file,
// byte for byte; a file ReadTrace refuses ends it with an error and no report.
func ReplayReader(r io.Reader, cfg ReplayConfig) (*Report, error) {
	rd, err := streamTrace(r)
	if err != nil {
		return nil, err
	}
	run, err := newReplayRun(rd.header, rd.record, cfg)
	if err != nil {
		return nil, err
	}
	return run.run()
}

// replayRun is one replay assembled and ready to run: a fresh clock, fleet,
// daemon and analyzer, and the source its arrivals are drawn from.
type replayRun struct {
	header TraceHeader
	// source fills rec with record i, called once per record in index order.
	source func(i int, rec *Record) error
	cfg    ReplayConfig // defaults resolved; RateScale 0 normalized to 1
	clk    *simclock.Clock
	d      *daemon.Daemon
	an     *Analyzer
	// ring holds the drawn records not yet submitted: the clock draws record
	// i+1 before record i's arrival runs. fired counts the arrivals run, last
	// is the latest drawn arrival instant, err the first failure.
	ring  [2]Record
	fired int
	last  time.Duration
	err   error
	// sessions maps each submitter to the session opened at their first
	// arrival; programs memoizes each (qubits, shots) payload.
	sessions map[string]*daemon.Session
	programs map[[2]int][]byte
	// submitErrs counts arrivals that failed for any reason but an admission
	// shed (those are first-class outcomes the analyzer counts).
	submitErrs int
}

// at maps a recorded arrival offset onto the (possibly rate-scaled) replay
// clock. Integer-microsecond division through float64 is exact enough to be
// deterministic (IEEE 754) and monotone (us1 ≤ us2 keeps us1/s ≤ us2/s), so
// scaled replays are as reproducible as unscaled ones; scale 1 bypasses the
// float path entirely for bit-safety.
func (r *replayRun) at(us int64) time.Duration {
	if r.cfg.RateScale == 1 {
		return time.Duration(us) * time.Microsecond
	}
	return time.Duration(int64(float64(us)/r.cfg.RateScale)) * time.Microsecond
}

// validScale reports whether a rate or shot multiplier is usable: 0 (unset)
// or positive and finite.
func validScale(v float64) bool { return v >= 0 && !math.IsInf(v, 0) }

// newReplayRun resolves the configuration and builds the run's fixtures.
func newReplayRun(header TraceHeader, source func(int, *Record) error, cfg ReplayConfig) (*replayRun, error) {
	if cfg.Devices == 0 {
		cfg.Devices = 4
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 14 * 24 * time.Hour
	}
	if !validScale(cfg.RateScale) {
		return nil, fmt.Errorf("loadgen: invalid rate scale %g", cfg.RateScale)
	}
	if !validScale(cfg.ShotScale) {
		return nil, fmt.Errorf("loadgen: invalid shot scale %g", cfg.ShotScale)
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}

	// The analyzer comes from the shared pool: its maps, sample buffers and
	// track slabs are recycled across the cells of a sweep, so a thousand-cell
	// run's live heap stays proportional to its worker count.
	an := analyzerPool.Get().(*Analyzer)
	an.Reset()
	clk := simclock.New()
	listener := an.Observe
	if extra := cfg.JobListener; extra != nil {
		listener = func(ev daemon.JobEvent) { an.Observe(ev); extra(ev) }
	}
	spec := daemon.NodeSpec{
		Partitions: cfg.Devices,
		// Replay reports are built from job lifecycle timing alone — no
		// analytics path reads measured counts — so the fleet runs in
		// timing-only mode: identical schedule decisions and report bytes,
		// none of the emulator cost that otherwise dominates the replay.
		Device: device.Config{TimingOnly: true},
		Daemon: daemon.Config{Clock: clk, AdminToken: "loadgen", EnablePreemption: !cfg.DisablePreemption,
			Seed: cfg.Seed, ProgramCache: cfg.ProgramCache, SetupSeconds: cfg.SetupSeconds,
			JobListener: listener},
		Router: cfg.Router, Scheduler: cfg.Scheduler, Admission: cfg.Admission, Priority: cfg.Priority,
	}
	if cfg.ShotScale != 0 && cfg.ShotScale != 1 {
		spec.Device.Spec = qir.DefaultAnalogSpec()
		spec.Device.Spec.ShotRateHz *= cfg.ShotScale
	}
	if cfg.Tracing || cfg.SpanListener != nil {
		spec.Daemon.SpanListener = trace.Tee(an.ObserveSpan, cfg.SpanListener)
		// With only the analyzer listening, marks and occupancy spans would
		// be built and discarded — have the daemon skip them. Any external
		// listener (flight recorder, exporter) gets the full stream.
		spec.Daemon.PipelineSpansOnly = cfg.SpanListener == nil
	}
	d, err := daemon.NewNode(spec)
	if err != nil {
		return nil, fmt.Errorf("loadgen: replay node: %w", err)
	}

	return &replayRun{header: header, source: source, cfg: cfg, clk: clk, d: d, an: an,
		sessions: make(map[string]*daemon.Session), programs: make(map[[2]int][]byte)}, nil
}

// run replays the trace to quiescence and returns the report.
func (r *replayRun) run() (*Report, error) {
	// One arrival cursor walks the trace: a single re-arming clock slot, fired
	// in exactly the order one event per record would (simclock.ScheduleSeries),
	// so the heap and the closures held at any instant do not grow with the
	// trace. The cursor also paces reclamation — every reclaimEvery arrivals
	// the daemon pools the records that turned terminal since — which keeps
	// the live job state at in-flight + cadence instead of everything seen.
	n := r.header.Jobs
	r.clk.ScheduleSeries(n, "loadgen-arrival", r.draw, func(i int) {
		r.fired = i + 1
		if i%reclaimEvery == reclaimEvery-1 {
			r.d.Release()
		}
		if r.err == nil {
			r.submit(&r.ring[i%2])
		}
	})
	// The drain starts at the header's horizon or just past the last arrival,
	// whichever is later, and a stream knows the last only once it is drawn:
	// fire events while arrivals remain (each lies before the last arrival),
	// then run to the horizon both fix.
	for r.err == nil && r.fired < n && r.clk.Step() {
	}
	if r.err != nil {
		return nil, r.err
	}
	horizon := r.at(r.header.HorizonUS)
	if n > 0 && r.last >= horizon {
		horizon = r.last + time.Microsecond
	}
	r.clk.RunUntil(horizon)
	return r.drain(horizon)
}

// draw is the cursor's at: record i from the source into the ring, and its
// arrival instant — past any horizon once the run has failed.
func (r *replayRun) draw(i int) time.Duration {
	if r.err == nil {
		rec := &r.ring[i%2]
		if r.err = r.source(i, rec); r.err == nil {
			r.last = r.at(rec.AtUS)
			return r.last
		}
	}
	return math.MaxInt64
}

// submit offers a record to the daemon, now.
func (r *replayRun) submit(rec *Record) {
	class, _ := rec.ParsedClass() // every source hands over checked records
	key := [2]int{rec.Qubits, rec.Shots}
	program, ok := r.programs[key]
	if !ok {
		if program, r.err = sharedPrograms.payload(rec.Qubits, rec.Shots); r.err != nil {
			return
		}
		r.programs[key] = program
	}
	// Sessions open in first-appearance order, as the daemon's RNG is drawn
	// in OpenSession alone: the same tokens whatever the run opens them at.
	sess := r.sessions[rec.User]
	if sess == nil {
		if sess, r.err = r.d.OpenSession(rec.User); r.err != nil {
			return
		}
		r.sessions[rec.User] = sess
	}
	_, err := r.d.Submit(sess.Token, daemon.SubmitRequest{
		Program:            program,
		Class:              class,
		Pattern:            sched.Pattern(rec.Pattern),
		Source:             "loadgen",
		ExpectedQPUSeconds: rec.ExpectedQPUSeconds,
		DeadlineSeconds:    rec.DeadlineSeconds,
	})
	if err != nil { // rej escapes through errors.As: declare it only when needed
		var rej *daemon.RejectedError
		if !errors.As(err, &rej) {
			r.submitErrs++
		}
	}
}

// drain runs the clock — every arrival fired, the clock at the horizon — on
// until every job is terminal, then builds the report and hands the run's
// scratch back to the shared pools.
func (r *replayRun) drain(horizon time.Duration) (*Report, error) {
	cfg, clk, d, an := r.cfg, r.clk, r.d, r.an
	// The report and the error labels carry the tuple as the policies name
	// themselves: "" resolved to the axis default.
	cfg.Router, cfg.Scheduler, cfg.Admission, cfg.Priority = d.RouterName(), d.OrderName(), d.AdmissionName(), d.PriorityName()
	// Drain the backlog by jumping straight to each next scheduled event:
	// the device drift/QA processes keep the event queue non-empty forever,
	// so quiescence is detected by job accounting, not an empty queue. The
	// jump fires exactly the events fixed-step probing would fire, in the
	// same order — byte-identical reports — without paying a clock pass per
	// empty probe minute.
	deadline := horizon + cfg.DrainGrace
	for {
		submitted, terminal := an.Counts()
		if terminal >= submitted {
			break
		}
		if clk.Now() >= deadline {
			return nil, fmt.Errorf("loadgen: %s backlog did not drain within %s past the horizon (%d/%d jobs terminal)",
				cfg.label(), cfg.DrainGrace, terminal, submitted)
		}
		next, ok := clk.NextEventAt()
		if !ok {
			return nil, fmt.Errorf("loadgen: %s event queue drained with %d/%d jobs terminal",
				cfg.label(), terminal, submitted)
		}
		if next > deadline {
			next = deadline
		}
		clk.RunUntil(next)
	}

	rep := an.Report()
	cfg.stamp(rep)
	rep.SubmitErrors = r.submitErrs
	for _, dev := range d.Devices() {
		dv := rep.PerDevice[dev.ID()]
		if dv == nil {
			dv = &DeviceSLO{}
			rep.PerDevice[dev.ID()] = dv
		}
		dv.Utilization = dev.Utilization()
	}
	// The report is self-contained; hand the per-cell scratch back to the
	// shared pools. Release recycles the job records that finished since the
	// cursor's last reclaim (safe here — every accessor above returned
	// copies) and the analyzer returns with its slab for the next cell. Error
	// paths skip this: a dropped analyzer is just a pool miss.
	d.Release()
	analyzerPool.Put(an)
	return rep, nil
}
