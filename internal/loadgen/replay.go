package loadgen

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// ReplayConfig parameterizes one deterministic trace replay.
type ReplayConfig struct {
	// Devices sizes the fleet (default 4).
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
	// Registry optionally receives the analyzer's telemetry histograms.
	Registry *telemetry.Registry
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

// preparedTrace is a trace decoded once for many replays: per-record classes
// and program indices resolved up front, plus the distinct submitters in
// first-appearance order. Every field is immutable after prepareTrace
// returns, so one preparedTrace is shared read-only across all workers of a
// sweep or saturation search.
type preparedTrace struct {
	tr      *Trace
	classes []sched.Class
	// programs indexes each record's payload in payloads, the trace's
	// distinct serialized programs: four bytes a record, not a slice header.
	programs []uint32
	payloads [][]byte
	users    []string
}

// prepareTrace validates the trace and resolves its per-record decode work —
// class parsing, program payload construction, submitter discovery — exactly
// once. Sweep and Saturate call it up front so a thousand cells replay the
// same decoded records instead of paying the warm-up per cell.
func prepareTrace(tr *Trace) (*preparedTrace, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	p := &preparedTrace{
		tr:       tr,
		classes:  make([]sched.Class, len(tr.Records)),
		programs: make([]uint32, len(tr.Records)),
	}
	seen := make(map[string]bool)
	index := make(map[[2]int]uint32)
	for i := range tr.Records {
		rec := &tr.Records[i]
		class, err := rec.ParsedClass()
		if err != nil {
			return nil, err
		}
		p.classes[i] = class
		key := [2]int{rec.Qubits, rec.Shots}
		if _, ok := index[key]; !ok {
			payload, err := sharedPrograms.payload(rec.Qubits, rec.Shots)
			if err != nil {
				return nil, err
			}
			index[key] = uint32(len(p.payloads))
			p.payloads = append(p.payloads, payload)
		}
		p.programs[i] = index[key]
		if !seen[rec.User] {
			seen[rec.User] = true
			p.users = append(p.users, rec.User)
		}
	}
	return p, nil
}

// analyzerPool recycles SLO analyzers (their maps, stage sample buffers and
// jobTrack slabs) across replay cells. Only registry-less analyzers — the
// sweep/saturate case — are pooled.
var analyzerPool = sync.Pool{New: func() any { return NewAnalyzer(nil) }}

// reclaimEvery is how many arrivals pass between the replay cursor's
// Daemon.Release calls: small enough that the terminal records held between
// two calls are noise beside the trace, large enough that the call's fixed
// cost (a lock, a slice reset) vanishes per job.
const reclaimEvery = 1024

// Replay submits every trace record at its recorded arrival instant against
// a fresh fleet on a fresh virtual clock, runs the clock to completion, and
// returns the SLO report. Everything executes on the calling goroutine, so
// event order — and therefore every schedule decision — is a pure function
// of (trace, config).
func Replay(tr *Trace, cfg ReplayConfig) (*Report, error) {
	prep, err := prepareTrace(tr)
	if err != nil {
		return nil, err
	}
	return replayPrepared(prep, cfg)
}

// replayPrepared is Replay against an already-decoded trace — the sweep and
// saturation engines call it directly so the decode cost is paid once, not
// per cell or per probe.
func replayPrepared(prep *preparedTrace, cfg ReplayConfig) (*Report, error) {
	r, err := newReplayRun(prep, cfg)
	if err != nil {
		return nil, err
	}
	return r.run()
}

// replayRun is one replay assembled and ready to run: a fresh clock, fleet,
// daemon and analyzer, with one session open per submitter.
type replayRun struct {
	prep *preparedTrace
	cfg  ReplayConfig // defaults resolved; RateScale 0 normalized to 1
	clk  *simclock.Clock
	d    *daemon.Daemon
	an   *Analyzer
	// sessions maps each submitter to their session.
	sessions map[string]*daemon.Session
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
func newReplayRun(prep *preparedTrace, cfg ReplayConfig) (*replayRun, error) {
	if cfg.Devices <= 0 {
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

	// Registry-less analyzers come from the shared pool: their maps, sample
	// buffers and track slabs are recycled across the cells of a sweep, so a
	// thousand-cell run's live heap stays proportional to its worker count.
	var an *Analyzer
	if cfg.Registry == nil {
		an = analyzerPool.Get().(*Analyzer)
		an.Reset()
	} else {
		an = NewAnalyzer(cfg.Registry)
	}
	clk := simclock.New()
	spec := daemon.NodeSpec{
		Partitions: cfg.Devices,
		// Replay reports are built from job lifecycle timing alone — no
		// analytics path reads measured counts — so the fleet runs in
		// timing-only mode: identical schedule decisions and report bytes,
		// none of the emulator cost that otherwise dominates the replay.
		Device: device.Config{TimingOnly: true},
		Daemon: daemon.Config{Clock: clk, AdminToken: "loadgen", EnablePreemption: !cfg.DisablePreemption,
			Seed: cfg.Seed, ProgramCache: cfg.ProgramCache, SetupSeconds: cfg.SetupSeconds,
			JobListener: an.Observe, Registry: cfg.Registry},
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

	// One session per distinct submitter, opened in first-appearance order so
	// token generation consumes the daemon's RNG identically across runs.
	sessions := make(map[string]*daemon.Session, len(prep.users))
	for _, user := range prep.users {
		if sessions[user], err = d.OpenSession(user); err != nil {
			return nil, err
		}
	}
	return &replayRun{prep: prep, cfg: cfg, clk: clk, d: d, an: an, sessions: sessions}, nil
}

// run replays the trace to quiescence and returns the report.
func (r *replayRun) run() (*Report, error) {
	// One arrival cursor walks the trace: a single re-arming clock slot, fired
	// in exactly the order one event per record would (simclock.ScheduleSeries),
	// so the heap and the closures held at any instant do not grow with the
	// trace. The cursor also paces reclamation — every reclaimEvery arrivals
	// the daemon pools the records that turned terminal since — which keeps
	// the live job state at in-flight + cadence instead of everything seen.
	records := r.prep.tr.Records
	r.clk.ScheduleSeries(len(records), "loadgen-arrival", func(i int) time.Duration {
		return r.at(records[i].AtUS)
	}, func(i int) {
		if i%reclaimEvery == reclaimEvery-1 {
			r.d.Release()
		}
		r.submit(i)
	})
	return r.drain()
}

// submit offers trace record i to the daemon, now.
func (r *replayRun) submit(i int) {
	rec := &r.prep.tr.Records[i]
	_, err := r.d.Submit(r.sessions[rec.User].Token, daemon.SubmitRequest{
		Program:            r.prep.payloads[r.prep.programs[i]],
		Class:              r.prep.classes[i],
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

// drain runs the clock — arrivals already scheduled — to the horizon and on
// until every job is terminal, then builds the report and hands the run's
// scratch back to the shared pools.
func (r *replayRun) drain() (*Report, error) {
	tr, cfg, clk, d, an := r.prep.tr, r.cfg, r.clk, r.d, r.an
	// The report and the error labels carry the tuple as the policies name
	// themselves: "" resolved to the axis default.
	cfg.Router, cfg.Scheduler, cfg.Admission, cfg.Priority = d.RouterName(), d.OrderName(), d.AdmissionName(), d.PriorityName()
	horizon := r.at(tr.Header.HorizonUS)
	if n := len(tr.Records); n > 0 {
		if last := r.at(tr.Records[n-1].AtUS); last >= horizon {
			horizon = last + time.Microsecond
		}
	}
	clk.RunUntil(horizon)
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
	if cfg.Registry == nil {
		analyzerPool.Put(an)
	}
	return rep, nil
}
