package main

// repRecord is one repetition of a workload: a fresh child process (or, for a
// multi-cell workload, one pass over its cells).
type repRecord struct {
	// Metrics holds this rep's value of every end-to-end metric but setup_s.
	Metrics map[string]float64 `json:"metrics"`
	// Detail holds further untraced numbers that explain the metrics (per-cell
	// walls, client-observed submit and scrape latency, retained heap); they
	// are recorded, not bounded.
	Detail map[string]float64 `json:"detail,omitempty"`
	// Samples states how many samples stand behind each percentile.
	Samples map[string]int `json:"samples,omitempty"`
}

// inputInfo identifies what a workload ran on, so that `compare` can refuse
// to compare runs of different inputs.
type inputInfo struct {
	// SHA256 is the digest of the generated trace file (replay and sweep
	// workloads) or of the generated program menu (serve workloads).
	SHA256 string `json:"sha256"`
	// Jobs is the trace's job count, or the jobs one serve rep submits.
	Jobs int `json:"jobs"`
}

// runResult is one run of one workload: untraced (end-to-end metrics, each
// the median over Reps) or traced (per-layer metrics).
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`

	Input        inputInfo          `json:"input"`
	Metrics      map[string]float64 `json:"metrics"`
	Reps         []repRecord        `json:"reps,omitempty"`
	SetupSeconds []float64          `json:"setup_seconds,omitempty"`
	// Findings are observations the run itself flags, such as a traced run
	// whose spans leave more than 15 % of the wall unattributed.
	Findings []string `json:"findings,omitempty"`
}

// Names of the end-to-end metrics, as BENCHMARK.json lists them.
const (
	mSetup         = "setup_s"
	mJobsPerSec    = "jobs_per_s"
	mPeakRSS       = "peak_rss_mb"
	mTurnaroundP50 = "turnaround_p50_ms"
	mTurnaroundP99 = "turnaround_p99_ms"
)

// foldReps sets each end-to-end metric to the median of its per-rep values.
func (r *runResult) foldReps() {
	for _, name := range endToEndNames {
		r.Metrics[name] = median(repValues(r, name))
	}
}

// repValues returns a run's per-rep values of one end-to-end metric; set-up
// has its own samples, one per set-up round.
func repValues(r *runResult, metric string) []float64 {
	if metric == mSetup {
		return r.SetupSeconds
	}
	vals := make([]float64, len(r.Reps))
	for i, rep := range r.Reps {
		vals[i] = rep.Metrics[metric]
	}
	return vals
}
