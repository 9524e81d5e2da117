package loadgen

// The report an Analyzer builds (slo.go): SLO distributions per class, stage
// and partition, and the quantile convention they share.

import "sort"

// Quantiles carries the p50/p95/p99 of one SLO distribution.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// quantilesInPlace is the nearest-rank quantiles of a scratch slice the
// caller owns, which it sorts.
func quantilesInPlace(s []float64) Quantiles {
	sort.Float64s(s)
	return pickQuantiles(len(s), func(i int) float64 { return s[i] })
}

// pickQuantiles applies the nearest-rank convention to n sorted samples, of
// which at reads the i-th (0-based); only the three picked ranks are read.
//
// The convention, locked in by table tests (N=0,1,2,100) because sweep
// reports must stay byte-identical across refactors: the percentile p maps to
// 1-based rank round(p·N) (half away from zero), clamped into [1, N], and the
// quantile is the sample at that rank — no interpolation. Consequences worth
// naming: an empty sample set yields zeros (never NaN or a panic); a single
// sample is every percentile; at N=2 the p50 is the *lower* sample (rank
// round(1.0) = 1) while p95/p99 take the upper; at N=100 the p50/p95/p99 are
// the 50th/95th/99th order statistics.
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
