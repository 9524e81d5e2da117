package loadgen

import (
	"sort"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// Quantiles carries the p50/p95/p99 of one SLO distribution.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// quantiles computes nearest-rank quantiles of an unsorted sample set.
//
// The convention, locked in by table tests (N=0,1,2,100) because sweep
// reports must stay byte-identical across refactors: the percentile p maps to
// 1-based rank round(p·N) (half away from zero), clamped into [1, N], and the
// quantile is the sample at that rank — no interpolation. Consequences worth
// naming: an empty sample set yields zeros (never NaN or a panic); a single
// sample is every percentile; at N=2 the p50 is the *lower* sample (rank
// round(1.0) = 1) while p95/p99 take the upper; at N=100 the p50/p95/p99 are
// the 50th/95th/99th order statistics.
func quantiles(samples []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantilesSorted(s)
}

// quantilesSorted is quantiles for an already-sorted slice the caller owns.
func quantilesSorted(s []float64) Quantiles {
	if len(s) == 0 {
		return Quantiles{}
	}
	pick := func(p float64) float64 {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Quantiles{P50: pick(0.50), P95: pick(0.95), P99: pick(0.99)}
}

// ClassSLO is the per-priority-class slice of a report. Rejected, ShedRate
// and Downgraded are keyed by the class the submitter *asked for* (a shed
// test job counts against test even though it never ran); everything else is
// keyed by the class the job actually ran at.
type ClassSLO struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Rejected counts submissions of this class shed by the admission
	// stage; ShedRate is Rejected over everything offered at this class.
	Rejected int     `json:"rejected"`
	ShedRate float64 `json:"shed_rate"`
	// Downgraded counts submissions of this class the admission stage
	// down-classed (they ran, but at a lower class).
	Downgraded int `json:"downgraded"`
	// GoodputJobsPerHour is completed work over the run's makespan — the
	// companion to ShedRate: what shedding best-effort work buys.
	GoodputJobsPerHour float64 `json:"goodput_jobs_per_hour"`
	Preemptions        int     `json:"preemptions"`
	// WaitSeconds is the distribution of time from submission to first
	// start; MeanWaitSeconds is its mean.
	WaitSeconds     Quantiles `json:"wait_seconds"`
	MeanWaitSeconds float64   `json:"mean_wait_seconds"`
	// Slowdown is turnaround divided by the job's expected QPU service time
	// (1.0 = ran the instant it arrived, with no queueing or preemption).
	Slowdown Quantiles `json:"slowdown"`
	// CacheHits/CacheMisses count program-cache outcomes across the class's
	// dispatches (a preempted job contributes one outcome per dispatch);
	// CacheHitRate is hits over both. All zero — and omitted — when the
	// replay ran without a program cache.
	CacheHits    int     `json:"cache_hits,omitempty"`
	CacheMisses  int     `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// DeadlineJobs counts admitted terminal jobs of this class that carried
	// a deadline; DeadlineHits are those that completed within it, and
	// everything else — late completion, failure, cancellation — is a miss.
	// (Rejected submissions never count here: they surface in ShedRate.)
	// DeadlineHitRate is hits over deadline jobs; LatenessSeconds is the
	// finish−deadline distribution over deadline-carrying *completed* jobs
	// (negative = finished early). All omitted when no job of the class
	// carried a deadline, keeping deadline-less reports byte-identical.
	DeadlineJobs    int        `json:"deadline_jobs,omitempty"`
	DeadlineHits    int        `json:"deadline_hits,omitempty"`
	DeadlineMisses  int        `json:"deadline_misses,omitempty"`
	DeadlineHitRate float64    `json:"deadline_hit_rate,omitempty"`
	LatenessSeconds *Quantiles `json:"lateness_seconds,omitempty"`
	// Stages is the stage-latency attribution, present when the replay ran
	// with tracing: per pipeline stage (validate, admission, route, queued,
	// requeued, execute), the distribution of that stage's duration for jobs
	// of this class — the decomposition that turns "p99 wait fell 11.5 s"
	// into "9 s out of queueing, 2.5 s out of admission retry".
	Stages map[string]*StageSLO `json:"stages,omitempty"`
}

// StageSLO is the per-stage slice of the stage-latency attribution.
type StageSLO struct {
	// Spans counts observed stage spans (a preempted job contributes one
	// execute span per run segment, one requeued span per requeue).
	Spans int `json:"spans"`
	// Seconds is the distribution of the stage's span durations.
	Seconds     Quantiles `json:"seconds"`
	MeanSeconds float64   `json:"mean_seconds"`
	// TotalSeconds is the summed stage time across the class's jobs — the
	// stage's share of where the class's seconds went.
	TotalSeconds float64 `json:"total_seconds"`
}

// DeviceSLO is the per-partition slice of a report.
type DeviceSLO struct {
	// Jobs counts jobs that finished homed on this partition.
	Jobs        int `json:"jobs"`
	Completed   int `json:"completed"`
	Preemptions int `json:"preemptions"`
	// Utilization is the partition's busy fraction over the run (filled by
	// the replay driver from the device model).
	Utilization float64 `json:"utilization"`
}

// Report is the SLO summary of one replayed policy combination.
type Report struct {
	Router    string `json:"router"`
	Scheduler string `json:"scheduler"`
	Admission string `json:"admission"`
	// Priority names the dynamic-urgency axis; empty (and omitted) for the
	// constant default, so pre-axis reports are byte-identical.
	Priority string `json:"priority,omitempty"`
	// FleetSize, Preemption, RateScale and ShotScale identify the cell along
	// the generalized sweep axes. Each is omitted at its default — fleet size
	// only stamped when the sweep crosses fleet sizes, preemption "off" only
	// when disabled, scales only when ≠ 1 — so reports from sweeps that never
	// touch these axes are byte-identical to their pre-axis form.
	FleetSize  int     `json:"fleet_size,omitempty"`
	Preemption string  `json:"preemption,omitempty"`
	RateScale  float64 `json:"rate_scale,omitempty"`
	ShotScale  float64 `json:"shot_scale,omitempty"`

	// Jobs counts every offered submission, including rejected ones;
	// Completed+Failed+Cancelled+Rejected covers the terminal states.
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Rejected counts submissions shed at the admission stage; Downgraded
	// counts submissions admitted at a lower class than requested.
	Rejected     int `json:"rejected"`
	Downgraded   int `json:"downgraded"`
	SubmitErrors int `json:"submit_errors,omitempty"`
	Preemptions  int `json:"preemptions"`
	Requeues     int `json:"requeues"`
	// CrossRequeues counts requeues that moved the job to a different
	// partition (the cross-partition requeue path).
	CrossRequeues int `json:"cross_requeues"`
	// MakespanSeconds is the simulation time of the last terminal event.
	MakespanSeconds float64 `json:"makespan_seconds"`
	// ProgramCacheHits/Misses/HitRate aggregate the per-class cache
	// outcomes; omitted when the replay ran without a program cache.
	ProgramCacheHits    int     `json:"program_cache_hits,omitempty"`
	ProgramCacheMisses  int     `json:"program_cache_misses,omitempty"`
	ProgramCacheHitRate float64 `json:"program_cache_hit_rate,omitempty"`

	PerClass  map[string]*ClassSLO  `json:"per_class"`
	PerDevice map[string]*DeviceSLO `json:"per_device"`
}

// jobTrack is the analyzer's per-job lifecycle accumulator.
type jobTrack struct {
	class string
	// requested is the submitted class when admission down-classed or shed
	// the job; empty when it equals class.
	requested  string
	device     string
	submitted  time.Duration
	firstStart time.Duration
	started    bool
	finished   time.Duration
	state      daemon.JobState
	terminal   bool
	rejected   bool
	preempts   int
	expected   float64
	// deadline is the job's relative completion deadline in seconds (0 =
	// none) — the deadline-hit accounting key.
	deadline float64
	// cacheHits/cacheMisses count this job's per-dispatch program-cache
	// outcomes (several when preemption re-dispatches it).
	cacheHits   int
	cacheMisses int
}

// Analyzer folds daemon job lifecycle events into SLO distributions. Attach
// Observe as (or inside) the daemon's Config.JobListener. It is the consumer
// side of the daemon's event hooks: a single instance watches one daemon.
//
// When a telemetry registry is supplied, wait and slowdown observations are
// also exported through telemetry.Metric histograms (loadgen_wait_seconds,
// loadgen_slowdown) so a live site scrapes SLO attainment from /metrics with
// the same machinery as every other signal.
type Analyzer struct {
	// jobs indexes the tracks of jobs still in flight: an entry goes when its
	// job turns terminal, so the map — and the ID strings it pins — follows
	// the backlog, not the trace. The tracks themselves stay in the slab, in
	// submission order, for Report.
	jobs          map[string]*jobTrack
	preemptByDev  map[string]int
	preempts      int
	requeues      int
	crossRequeues int
	terminal      int
	lastTerminal  time.Duration

	mWait, mSlowdown *telemetry.Metric
	// Pre-bound per-class series: one job finishing observes at most two
	// histograms, and binding at construction keeps label-map allocation and
	// key rendering out of that per-job path. Nil maps (no registry) and nil
	// entries both no-op.
	bWait, bSlowdown map[string]*telemetry.BoundSeries

	// stages accumulates per-class per-stage duration samples from pipeline
	// spans (class → stage → seconds), populated when ObserveSpan is wired as
	// the daemon's span listener. Samples arrive in emission order — the
	// deterministic single-goroutine replay order — so the report's stage
	// quantiles are byte-stable.
	// Samples stay in the emission unit (time.Duration) — the float64
	// seconds conversion happens once per sample at Report time, not on the
	// per-span hot path.
	stages map[string]map[trace.Stage][]time.Duration
	// lastClass/lastStages memoize the most recent class lookup: spans for
	// one job arrive back-to-back, so consecutive samples usually share a
	// class and skip the outer map hash.
	lastClass  string
	lastStages map[trace.Stage][]time.Duration

	// chunks is the slab allocator behind jobTrack records: fixed-size blocks
	// handed out sequentially, retained across Reset so a pooled analyzer
	// replaying its next cell reuses the previous cell's track memory instead
	// of allocating one small object per job.
	chunks [][]jobTrack
	used   int
}

// trackChunkSize is the jobTrack slab block size (tracks per allocation).
const trackChunkSize = 4096

// newTrack hands out the next zeroed jobTrack from the slab.
func (a *Analyzer) newTrack() *jobTrack {
	ci, off := a.used/trackChunkSize, a.used%trackChunkSize
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]jobTrack, trackChunkSize))
	}
	a.used++
	t := &a.chunks[ci][off]
	*t = jobTrack{}
	return t
}

// Reset clears the analyzer for a fresh replay while retaining every
// allocation it has made — maps, stage sample slices and the track slab. This
// is the state-pooling hook behind the sweep engine: a thousand-cell sweep
// recycles one analyzer per worker instead of growing the heap by one per
// cell. Only registry-less analyzers are pooled (bound telemetry series
// belong to a specific registry).
func (a *Analyzer) Reset() {
	clear(a.jobs)
	clear(a.preemptByDev)
	a.preempts, a.requeues, a.crossRequeues, a.terminal = 0, 0, 0, 0
	a.lastTerminal = 0
	a.used = 0
	a.lastClass, a.lastStages = "", nil
	for _, byStage := range a.stages {
		for stage, samples := range byStage {
			byStage[stage] = samples[:0]
		}
	}
}

// NewAnalyzer returns an analyzer; reg may be nil to skip metric exposition.
func NewAnalyzer(reg *telemetry.Registry) *Analyzer {
	a := &Analyzer{
		jobs:         make(map[string]*jobTrack),
		preemptByDev: make(map[string]int),
	}
	if reg != nil {
		a.mWait = reg.MustHistogram("loadgen_wait_seconds", "Job queue wait by class under generated load.",
			[]float64{1, 5, 15, 60, 300, 1800, 7200})
		a.mSlowdown = reg.MustHistogram("loadgen_slowdown", "Job slowdown (turnaround / expected service) by class.",
			[]float64{1, 1.5, 2, 3, 5, 8, 16, 64})
		a.bWait = make(map[string]*telemetry.BoundSeries, 3)
		a.bSlowdown = make(map[string]*telemetry.BoundSeries, 3)
		for _, class := range []string{"production", "test", "dev"} {
			a.bWait[class] = a.mWait.Bind(telemetry.Labels{"class": class})
			a.bSlowdown[class] = a.mSlowdown.Bind(telemetry.Labels{"class": class})
		}
	}
	return a
}

// Observe consumes one job lifecycle event. It must see every event of the
// run (wire it up before the first submission). Not safe for concurrent use
// with itself; the daemon invokes listeners synchronously, which is the
// intended single-threaded replay setup.
func (a *Analyzer) Observe(ev daemon.JobEvent) {
	switch ev.Type {
	case daemon.JobEventSubmitted:
		t := a.newTrack()
		t.class = ev.Job.Class.String()
		t.device = ev.Job.Device
		t.submitted = ev.Job.SubmittedAt
		t.expected = ev.Job.ExpectedQPUSeconds
		t.deadline = ev.Job.DeadlineSeconds
		if ev.Job.RequestedClass != ev.Job.Class {
			t.requested = ev.Job.RequestedClass.String()
		}
		a.jobs[ev.Job.ID] = t
	case daemon.JobEventRejected:
		// Shed submissions are terminal from birth: they count as offered
		// load (for shed rates) but never enter the wait distributions — or
		// the in-flight index.
		t := a.newTrack()
		t.class = ev.Job.Class.String()
		t.submitted = ev.Job.SubmittedAt
		t.expected = ev.Job.ExpectedQPUSeconds
		t.state = daemon.JobRejected
		t.terminal = true
		t.rejected = true
		t.finished = ev.At
		a.terminal++
		if ev.At > a.lastTerminal {
			a.lastTerminal = ev.At
		}
	case daemon.JobEventStarted:
		t := a.jobs[ev.Job.ID]
		if t == nil {
			return
		}
		if !t.started {
			t.started = true
			t.firstStart = ev.At
		}
		// Every start is one dispatch, so the cache outcome is counted here
		// (not just on first start): a preempted job's re-dispatch probes the
		// cache again. Empty means caching is off.
		switch ev.Job.Cache {
		case "hit":
			t.cacheHits++
		case "miss":
			t.cacheMisses++
		}
	case daemon.JobEventPreempted:
		a.preempts++
		a.preemptByDev[ev.Job.Device]++
		if t := a.jobs[ev.Job.ID]; t != nil {
			t.preempts++
		}
	case daemon.JobEventRequeued:
		a.requeues++
		if t := a.jobs[ev.Job.ID]; t != nil {
			if ev.Job.Device != t.device {
				a.crossRequeues++
			}
			t.device = ev.Job.Device
		}
	case daemon.JobEventFinished:
		t := a.jobs[ev.Job.ID]
		if t == nil {
			return
		}
		delete(a.jobs, ev.Job.ID)
		t.terminal = true
		t.state = ev.Job.State
		t.finished = ev.At
		t.device = ev.Job.Device
		a.terminal++
		if ev.At > a.lastTerminal {
			a.lastTerminal = ev.At
		}
		if t.started {
			a.bWait[t.class].Observe((t.firstStart - t.submitted).Seconds())
		}
		if ev.Job.State == daemon.JobCompleted && t.expected > 0 {
			a.bSlowdown[t.class].Observe((t.finished - t.submitted).Seconds() / t.expected)
		}
	}
}

// ObserveSpan consumes one pipeline span — wire it as (or inside) the
// daemon's Config.SpanListener to get stage-latency attribution in the
// report. Occupancy spans and instant lifecycle marks are skipped; what
// accumulates is where each job's seconds went, per class and stage. Like
// Observe, not safe for concurrent use with itself.
func (a *Analyzer) ObserveSpan(s trace.Span) {
	switch s.Stage {
	case trace.StageValidate, trace.StageAdmission, trace.StageRoute,
		trace.StageQueued, trace.StageRequeued, trace.StageExecute:
	default:
		return
	}
	byStage := a.lastStages
	if byStage == nil || a.lastClass != s.Class {
		if a.stages == nil {
			a.stages = make(map[string]map[trace.Stage][]time.Duration, 3)
		}
		byStage = a.stages[s.Class]
		if byStage == nil {
			byStage = make(map[trace.Stage][]time.Duration, 6)
			a.stages[s.Class] = byStage
		}
		a.lastClass, a.lastStages = s.Class, byStage
	}
	samples := byStage[s.Stage]
	if cap(samples) == 0 {
		samples = make([]time.Duration, 0, 128)
	}
	byStage[s.Stage] = append(samples, s.End-s.Start)
}

// Counts reports (accepted, terminal) job totals — the replay driver's drain
// condition.
func (a *Analyzer) Counts() (submitted, terminal int) {
	return a.used, a.terminal
}

// Report aggregates the distributions observed so far.
func (a *Analyzer) Report() *Report {
	rep := &Report{
		Preemptions:     a.preempts,
		Requeues:        a.requeues,
		CrossRequeues:   a.crossRequeues,
		MakespanSeconds: a.lastTerminal.Seconds(),
		PerClass:        make(map[string]*ClassSLO),
		PerDevice:       make(map[string]*DeviceSLO),
	}
	waits := make(map[string][]float64)
	slowdowns := make(map[string][]float64)
	lateness := make(map[string][]float64)
	// offered counts submissions by the class they were *submitted* at —
	// the shed-rate denominator (a down-classed test job was offered at
	// test even though it ran at dev).
	offered := make(map[string]int)
	classSLO := func(name string) *ClassSLO {
		c := rep.PerClass[name]
		if c == nil {
			c = &ClassSLO{}
			rep.PerClass[name] = c
		}
		return c
	}
	for i := 0; i < a.used; i++ {
		t := &a.chunks[i/trackChunkSize][i%trackChunkSize]
		rep.Jobs++
		c := classSLO(t.class)
		c.Jobs++
		if t.rejected {
			// Shed at the door: offered-load accounting only; no device,
			// wait or slowdown samples.
			rep.Rejected++
			c.Rejected++
			offered[t.class]++
			continue
		}
		if t.requested != "" {
			rep.Downgraded++
			classSLO(t.requested).Downgraded++
			offered[t.requested]++
		} else {
			offered[t.class]++
		}
		c.Preemptions += t.preempts
		dv := rep.PerDevice[t.device]
		if dv == nil {
			dv = &DeviceSLO{}
			rep.PerDevice[t.device] = dv
		}
		dv.Jobs++
		c.CacheHits += t.cacheHits
		c.CacheMisses += t.cacheMisses
		rep.ProgramCacheHits += t.cacheHits
		rep.ProgramCacheMisses += t.cacheMisses
		if t.started {
			waits[t.class] = append(waits[t.class], (t.firstStart - t.submitted).Seconds())
		}
		if !t.terminal {
			continue
		}
		switch t.state {
		case daemon.JobCompleted:
			rep.Completed++
			c.Completed++
			dv.Completed++
			if t.expected > 0 {
				slowdowns[t.class] = append(slowdowns[t.class], (t.finished-t.submitted).Seconds()/t.expected)
			}
		case daemon.JobFailed:
			rep.Failed++
			c.Failed++
		case daemon.JobCancelled:
			rep.Cancelled++
			c.Cancelled++
		}
		if t.deadline > 0 {
			c.DeadlineJobs++
			late := (t.finished - t.submitted).Seconds() - t.deadline
			if t.state == daemon.JobCompleted {
				// Lateness is only meaningful for work that finished; hits
				// use the same ≤-deadline convention as the span annotation.
				lateness[t.class] = append(lateness[t.class], late)
			}
			if t.state == daemon.JobCompleted && late <= 0 {
				c.DeadlineHits++
			} else {
				c.DeadlineMisses++
			}
		}
	}
	for dev, n := range a.preemptByDev {
		dv := rep.PerDevice[dev]
		if dv == nil {
			dv = &DeviceSLO{}
			rep.PerDevice[dev] = dv
		}
		dv.Preemptions = n
	}
	for class, c := range rep.PerClass {
		w := waits[class]
		c.WaitSeconds = quantiles(w)
		for _, v := range w {
			c.MeanWaitSeconds += v
		}
		if len(w) > 0 {
			c.MeanWaitSeconds /= float64(len(w))
		}
		c.Slowdown = quantiles(slowdowns[class])
		if n := offered[class]; n > 0 {
			c.ShedRate = float64(c.Rejected) / float64(n)
		}
		if rep.MakespanSeconds > 0 {
			c.GoodputJobsPerHour = float64(c.Completed) / (rep.MakespanSeconds / 3600)
		}
		if total := c.CacheHits + c.CacheMisses; total > 0 {
			c.CacheHitRate = float64(c.CacheHits) / float64(total)
		}
		if c.DeadlineJobs > 0 {
			c.DeadlineHitRate = float64(c.DeadlineHits) / float64(c.DeadlineJobs)
		}
		if l := lateness[class]; len(l) > 0 {
			q := quantiles(l)
			c.LatenessSeconds = &q
		}
	}
	if total := rep.ProgramCacheHits + rep.ProgramCacheMisses; total > 0 {
		rep.ProgramCacheHitRate = float64(rep.ProgramCacheHits) / float64(total)
	}
	for class, byStage := range a.stages {
		var stages map[string]*StageSLO
		for stage, samples := range byStage {
			// A pooled analyzer retains truncated sample slices (and whole
			// class maps) from earlier cells; only stages observed in *this*
			// run may appear in the report, or pooling would change bytes.
			if len(samples) == 0 {
				continue
			}
			secs := make([]float64, len(samples))
			for i, v := range samples {
				secs[i] = v.Seconds()
			}
			st := &StageSLO{Spans: len(secs)}
			for _, v := range secs {
				st.TotalSeconds += v
			}
			// secs is a scratch copy already — sort it in place rather than
			// paying quantiles' defensive copy.
			sort.Float64s(secs)
			st.Seconds = quantilesSorted(secs)
			st.MeanSeconds = st.TotalSeconds / float64(len(secs))
			if stages == nil {
				stages = make(map[string]*StageSLO, len(byStage))
			}
			stages[string(stage)] = st
		}
		if stages != nil {
			classSLO(class).Stages = stages
		}
	}
	return rep
}
