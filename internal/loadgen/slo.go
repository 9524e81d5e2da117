package loadgen

import (
	"slices"
	"sort"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/sched"
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
	return quantilesInPlace(append([]float64(nil), samples...))
}

// quantilesInPlace is quantiles of a scratch slice the caller owns, which it
// sorts.
func quantilesInPlace(s []float64) Quantiles {
	sort.Float64s(s)
	return pickQuantiles(len(s), func(i int) float64 { return s[i] })
}

// pickQuantiles applies the nearest-rank convention to n sorted samples, of
// which at reads the i-th (0-based); only the three picked ranks are read.
func pickQuantiles(n int, at func(i int) float64) Quantiles {
	if n == 0 {
		return Quantiles{}
	}
	pick := func(p float64) float64 {
		return at(min(max(int(p*float64(n)+0.5)-1, 0), n-1))
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

// jobTrack is the analyzer's per-job lifecycle accumulator, what the peak heap
// holds per job seen: pointer-free, so the GC never scans the slab behind it.
type jobTrack struct {
	submitted, firstStart, finished time.Duration
	expected                        float64
	// deadline is the job's relative completion deadline in seconds (0 =
	// none) — the deadline-hit accounting key.
	deadline float64
	device   uint32 // index into Analyzer.devices
	// preempts and per-dispatch program-cache outcomes (preemption re-dispatches)
	preempts, cacheHits, cacheMisses int32
	// class and requested are sched.Class values; requested differs only
	// when admission down-classed the job.
	class, requested  uint8
	state             trackState // once terminal
	started, terminal bool
}

// trackState is a terminal track's state; trackOther counts nowhere.
type trackState uint8

const (
	trackOther trackState = iota
	trackCompleted
	trackFailed
	trackCancelled
	trackRejected
)

// finishedStates maps the states a job finishes in onto track states.
var finishedStates = map[daemon.JobState]trackState{
	daemon.JobCompleted: trackCompleted, daemon.JobFailed: trackFailed, daemon.JobCancelled: trackCancelled}

// spanStages are the pipeline stages the attribution keeps, in table order.
var spanStages = [...]trace.Stage{trace.StageValidate, trace.StageAdmission, trace.StageRoute,
	trace.StageQueued, trace.StageRequeued, trace.StageExecute}

// stageCell is one class's spans of one stage: zero-length ones (a replay's
// validate, admission and route spans) counted, others kept in emission order.
type stageCell struct {
	zeros int
	durs  []time.Duration
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
	preempts      int
	requeues      int
	crossRequeues int
	terminal      int
	lastTerminal  time.Duration

	// devices is the run's device table, which tracks index into.
	devices      []string
	preemptByDev map[string]int

	// Pre-bound per-class series: one job finishing observes at most two
	// histograms, and binding at construction keeps label-map allocation and
	// key rendering out of that per-job path. Nil entries (no registry) no-op.
	bWait, bSlowdown [sched.ClassProduction + 1]*telemetry.BoundSeries

	// stages is the stage-latency attribution, populated when ObserveSpan is
	// wired as the daemon's span listener: one cell per class and stage.
	// Durations stay in the emission unit — the float64 seconds conversion
	// happens at Report time, not on the per-span hot path.
	stages [sched.ClassProduction + 1][len(spanStages)]stageCell

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

// device returns the device-table index of id, adding it on first sight. The
// scan costs what a routing pick's walk over the same fleet already costs.
func (a *Analyzer) device(id string) uint32 {
	i := slices.Index(a.devices, id)
	if i < 0 {
		i, a.devices = len(a.devices), append(a.devices, id)
	}
	return uint32(i)
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
	a.devices = a.devices[:0]
	a.preempts, a.requeues, a.crossRequeues, a.terminal = 0, 0, 0, 0
	a.lastTerminal = 0
	a.used = 0
	for c := range a.stages {
		for i, cell := range a.stages[c] {
			a.stages[c][i] = stageCell{durs: cell.durs[:0]}
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
		mWait := reg.MustHistogram("loadgen_wait_seconds", "Job queue wait by class under generated load.",
			[]float64{1, 5, 15, 60, 300, 1800, 7200})
		mSlowdown := reg.MustHistogram("loadgen_slowdown", "Job slowdown (turnaround / expected service) by class.",
			[]float64{1, 1.5, 2, 3, 5, 8, 16, 64})
		for c := sched.ClassProduction; c >= sched.ClassDev; c-- {
			a.bWait[c] = mWait.Bind(telemetry.Labels{"class": c.String()})
			a.bSlowdown[c] = mSlowdown.Bind(telemetry.Labels{"class": c.String()})
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
		t.class, t.requested = uint8(ev.Job.Class), uint8(ev.Job.RequestedClass)
		t.device = a.device(ev.Job.Device)
		t.submitted = ev.Job.SubmittedAt
		t.expected = ev.Job.ExpectedQPUSeconds
		t.deadline = ev.Job.DeadlineSeconds
		a.jobs[ev.Job.ID] = t
	case daemon.JobEventRejected:
		// Shed submissions are terminal from birth: they count as offered
		// load (for shed rates) but never enter the wait distributions — or
		// the in-flight index.
		t := a.newTrack()
		t.class = uint8(ev.Job.Class)
		t.submitted = ev.Job.SubmittedAt
		t.expected = ev.Job.ExpectedQPUSeconds
		t.state, t.terminal = trackRejected, true
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
			dev := a.device(ev.Job.Device)
			if dev != t.device {
				a.crossRequeues++
			}
			t.device = dev
		}
	case daemon.JobEventFinished:
		t := a.jobs[ev.Job.ID]
		if t == nil {
			return
		}
		delete(a.jobs, ev.Job.ID)
		t.state, t.terminal = finishedStates[ev.Job.State], true
		t.finished = ev.At
		t.device = a.device(ev.Job.Device)
		a.terminal++
		if ev.At > a.lastTerminal {
			a.lastTerminal = ev.At
		}
		if t.started {
			a.bWait[t.class].Observe((t.firstStart - t.submitted).Seconds())
		}
		if t.state == trackCompleted && t.expected > 0 {
			a.bSlowdown[t.class].Observe((t.finished - t.submitted).Seconds() / t.expected)
		}
	}
}

// ObserveSpan consumes one pipeline span — wire it as (or inside) the
// daemon's Config.SpanListener to get stage-latency attribution in the
// report. Occupancy spans, instant lifecycle marks and spans of no known
// class are skipped; what accumulates is where each job's seconds went, per
// class and stage. Like Observe, not safe for concurrent use with itself.
func (a *Analyzer) ObserveSpan(s trace.Span) {
	stage := slices.Index(spanStages[:], s.Stage)
	class, err := sched.ParseClass(s.Class)
	if stage < 0 || err != nil {
		return
	}
	cell := &a.stages[class][stage]
	if d := s.End - s.Start; d != 0 {
		cell.durs = append(cell.durs, d)
	} else {
		cell.zeros++
	}
}

// Counts reports (accepted, terminal) job totals — the replay driver's drain
// condition.
func (a *Analyzer) Counts() (submitted, terminal int) {
	return a.used, a.terminal
}

// Report aggregates the distributions observed so far; it sorts only scratch.
func (a *Analyzer) Report() *Report {
	rep := &Report{
		Preemptions:     a.preempts,
		Requeues:        a.requeues,
		CrossRequeues:   a.crossRequeues,
		MakespanSeconds: a.lastTerminal.Seconds(),
		PerClass:        make(map[string]*ClassSLO),
		PerDevice:       make(map[string]*DeviceSLO),
	}
	var waits, slowdowns, lateness [sched.ClassProduction + 1][]float64
	// offered counts submissions by the class they were *submitted* at —
	// the shed-rate denominator (a down-classed test job was offered at
	// test even though it ran at dev).
	var offered [sched.ClassProduction + 1]int
	var classes [sched.ClassProduction + 1]*ClassSLO
	classSLO := func(class uint8) *ClassSLO {
		if classes[class] == nil {
			classes[class] = &ClassSLO{}
			rep.PerClass[sched.Class(class).String()] = classes[class]
		}
		return classes[class]
	}
	deviceSLO := func(id string) *DeviceSLO {
		dv := rep.PerDevice[id]
		if dv == nil {
			dv = &DeviceSLO{}
			rep.PerDevice[id] = dv
		}
		return dv
	}
	for i := 0; i < a.used; i++ {
		t := &a.chunks[i/trackChunkSize][i%trackChunkSize]
		rep.Jobs++
		c := classSLO(t.class)
		c.Jobs++
		if t.state == trackRejected {
			// Shed at the door: offered-load accounting only; no device,
			// wait or slowdown samples.
			rep.Rejected++
			c.Rejected++
			offered[t.class]++
			continue
		}
		if t.requested != t.class {
			rep.Downgraded++
			classSLO(t.requested).Downgraded++
		}
		offered[t.requested]++
		c.Preemptions += int(t.preempts)
		dv := deviceSLO(a.devices[t.device])
		dv.Jobs++
		c.CacheHits += int(t.cacheHits)
		c.CacheMisses += int(t.cacheMisses)
		rep.ProgramCacheHits += int(t.cacheHits)
		rep.ProgramCacheMisses += int(t.cacheMisses)
		if t.started {
			waits[t.class] = append(waits[t.class], (t.firstStart - t.submitted).Seconds())
		}
		if !t.terminal {
			continue
		}
		switch t.state {
		case trackCompleted:
			rep.Completed++
			c.Completed++
			dv.Completed++
			if t.expected > 0 {
				slowdowns[t.class] = append(slowdowns[t.class], (t.finished-t.submitted).Seconds()/t.expected)
			}
		case trackFailed:
			rep.Failed++
			c.Failed++
		case trackCancelled:
			rep.Cancelled++
			c.Cancelled++
		}
		if t.deadline > 0 {
			c.DeadlineJobs++
			late := (t.finished - t.submitted).Seconds() - t.deadline
			if t.state == trackCompleted {
				// Lateness is only meaningful for work that finished; hits
				// use the same ≤-deadline convention as the span annotation.
				lateness[t.class] = append(lateness[t.class], late)
			}
			if t.state == trackCompleted && late <= 0 {
				c.DeadlineHits++
			} else {
				c.DeadlineMisses++
			}
		}
	}
	for dev, n := range a.preemptByDev {
		deviceSLO(dev).Preemptions = n
	}
	for class, c := range classes {
		if c == nil {
			continue
		}
		// The mean sums in observation order, before the sort.
		w := waits[class]
		for _, v := range w {
			c.MeanWaitSeconds += v
		}
		if len(w) > 0 {
			c.MeanWaitSeconds /= float64(len(w))
		}
		c.WaitSeconds = quantilesInPlace(w)
		c.Slowdown = quantilesInPlace(slowdowns[class])
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
			q := quantilesInPlace(l)
			c.LatenessSeconds = &q
		}
	}
	if total := rep.ProgramCacheHits + rep.ProgramCacheMisses; total > 0 {
		rep.ProgramCacheHitRate = float64(rep.ProgramCacheHits) / float64(total)
	}
	var scratch []time.Duration
	for class := range a.stages {
		var stages map[string]*StageSLO
		for i := range a.stages[class] {
			cell := &a.stages[class][i]
			n := cell.zeros + len(cell.durs)
			// A pooled analyzer retains truncated cells from earlier runs;
			// only stages observed in *this* run may appear in the report.
			if n == 0 {
				continue
			}
			// Adding a zero span's +0.0 moves no bit, so the total sums the
			// non-zero spans alone, in observation order.
			st := &StageSLO{Spans: n}
			for _, d := range cell.durs {
				st.TotalSeconds += d.Seconds()
			}
			st.MeanSeconds = st.TotalSeconds / float64(n)
			// Seconds is monotone, so ranks over the sorted durations pick
			// the same samples as ranks over sorted seconds. The zero run
			// sorts after the negatives (if any ever occur).
			scratch = append(scratch[:0], cell.durs...)
			slices.Sort(scratch)
			neg := sort.Search(len(scratch), func(i int) bool { return scratch[i] > 0 })
			st.Seconds = pickQuantiles(n, func(i int) float64 {
				if i >= neg+cell.zeros {
					i -= cell.zeros
				} else if i >= neg {
					return 0
				}
				return scratch[i].Seconds()
			})
			if stages == nil {
				stages = make(map[string]*StageSLO, len(spanStages))
			}
			stages[string(spanStages[i])] = st
		}
		if stages != nil {
			classSLO(uint8(class)).Stages = stages
		}
	}
	return rep
}
