package loadgen

import (
	"fmt"
	"math"
	"sort"
)

// Saturation objectives. The knee is the largest arrival-rate multiplier at
// which the production class still meets the objective's target.
const (
	// ObjectiveP99Wait targets production p99 queue wait ≤ TargetSeconds.
	ObjectiveP99Wait = "p99-wait"
	// ObjectiveDeadlineHit targets production deadline-hit rate ≥
	// TargetHitRate (the trace must carry production deadlines).
	ObjectiveDeadlineHit = "deadline-hit"
)

// SaturateConfig parameterizes a capacity-frontier search: per policy tuple
// × fleet size, binary-search the rate multiplier to the knee where the
// production objective blows past target.
type SaturateConfig struct {
	// SweepConfig is the tuple matrix, with sweep semantics: Devices,
	// FleetSizes, Seed, the four policy axes, Workers, ProgramCache and
	// SetupSeconds mean what they mean to Sweep. The fields a frontier point
	// cannot name or the search does not read — RateScales (the search owns
	// the rate), Preemptions, ShotScales and Tracing — must be left unset.
	// Probes within one tuple are inherently serial (each bisection step
	// depends on the last), so Workers parallelizes across tuples.
	SweepConfig
	// Objective selects the SLO the knee is measured against: p99-wait
	// (default) or deadline-hit.
	Objective string
	// TargetSeconds is the p99-wait objective's ceiling (default 120).
	TargetSeconds float64
	// TargetHitRate is the deadline-hit objective's floor (default 0.95).
	TargetHitRate float64
	// MaxScale caps the search (default 64): a tuple that still meets
	// target at MaxScale is reported Capped rather than probed forever.
	MaxScale float64
	// Tolerance is the relative knee precision: bisection stops when the
	// bracket's hi/lo ratio drops under 1+Tolerance (default 0.05).
	Tolerance float64
	// CostPerDeviceHour prices one partition-hour for the frontier ranking
	// (default 1 — a relative ranking).
	CostPerDeviceHour float64

	// probe overrides the replay engine in tests (edge-case injection:
	// non-monotone objectives, synthetic knees). Nil runs real replays.
	probe func(tr *Trace, cfg ReplayConfig) (*Report, error)
}

// FrontierPoint is one tuple's knee: the capacity frontier's value at
// (router, scheduler, admission, priority, fleet size).
type FrontierPoint struct {
	Router    string `json:"router"`
	Scheduler string `json:"scheduler"`
	Admission string `json:"admission"`
	// Priority is omitted for the constant default, like sweep cells.
	Priority  string `json:"priority,omitempty"`
	FleetSize int    `json:"fleet_size"`
	// MaxSustainableScale is the knee: the largest probed rate multiplier
	// still meeting the objective (1 = the trace exactly as recorded; 0 =
	// the target is already violated at the base rate).
	MaxSustainableScale float64 `json:"max_sustainable_scale"`
	// MaxSustainableJobsPerHour is the knee as offered load: the report's
	// base arrival rate times the knee multiplier.
	MaxSustainableJobsPerHour float64 `json:"max_sustainable_jobs_per_hour"`
	// ObjectiveAtKnee is the objective's value at the knee probe (at the
	// base probe when ViolatedAtBase).
	ObjectiveAtKnee float64 `json:"objective_at_knee"`
	// FirstViolation is the smallest probed scale that violated the target;
	// omitted when Capped (nothing violated up to MaxScale).
	FirstViolation float64 `json:"first_violation,omitempty"`
	// ViolatedAtBase marks tuples whose objective misses target at 1× —
	// the configuration cannot sustain even the recorded trace.
	ViolatedAtBase bool `json:"violated_at_base,omitempty"`
	// Capped marks tuples that still met target at MaxScale; the true knee
	// lies beyond the search bound.
	Capped bool `json:"capped,omitempty"`
	// Probes counts the replays this knee cost.
	Probes int `json:"probes"`
	// CostPerThousandJobs is the fleet's cost rate divided by sustainable
	// throughput: (FleetSize × CostPerDeviceHour) / (kjobs/hour) — the
	// cost-per-met-SLO ranking key. Omitted when nothing is sustainable.
	CostPerThousandJobs float64 `json:"cost_per_thousand_jobs,omitempty"`
}

// Tuple renders the point's policy tuple and fleet for human output — the
// label of the replays that found it.
func (p *FrontierPoint) Tuple() string {
	return (&ReplayConfig{Router: p.Router, Scheduler: p.Scheduler, Admission: p.Admission,
		Priority: p.Priority, Devices: p.FleetSize}).label()
}

// FrontierRank is one row of the cost-per-met-SLO ranking.
type FrontierRank struct {
	Tuple                     string  `json:"tuple"`
	FleetSize                 int     `json:"fleet_size"`
	MaxSustainableScale       float64 `json:"max_sustainable_scale"`
	MaxSustainableJobsPerHour float64 `json:"max_sustainable_jobs_per_hour"`
	CostPerThousandJobs       float64 `json:"cost_per_thousand_jobs,omitempty"`
}

// FrontierReport is the deterministic capacity-frontier report: max
// sustainable rate per policy tuple × fleet size, plus the cost ranking.
// Identical configs yield byte-identical JSON — every probe is a
// deterministic replay, and the probe sequence is a pure function of the
// config — which is the contract `qcload saturate` reruns are checked
// against.
type FrontierReport struct {
	Trace     TraceHeader `json:"trace"`
	Seed      int64       `json:"seed"`
	Objective string      `json:"objective"`
	// Target is the objective's threshold: seconds for p99-wait, a rate in
	// [0,1] for deadline-hit.
	Target    float64 `json:"target"`
	MaxScale  float64 `json:"max_scale"`
	Tolerance float64 `json:"tolerance"`
	// BaseJobsPerHour is the trace's recorded arrival rate — what scale 1
	// means in absolute terms.
	BaseJobsPerHour float64 `json:"base_jobs_per_hour"`
	// Points is the frontier in canonical axis order (router-major, fleet
	// size innermost).
	Points []*FrontierPoint `json:"points"`
	// Ranking orders the frontier by cost per met-SLO throughput, cheapest
	// first; tuples that sustain nothing rank last in frontier order.
	Ranking []*FrontierRank `json:"ranking"`
}

// saturateObjective evaluates one probe report against the objective.
// value is the objective's measurement; ok reports whether it meets target.
func saturateObjective(rep *Report, objective string, cfg *SaturateConfig) (value float64, ok bool) {
	prod := rep.PerClass["production"]
	switch objective {
	case ObjectiveDeadlineHit:
		if prod == nil || prod.DeadlineJobs == 0 {
			// No production deadline work: vacuously met. The caller
			// validates the trace carries production deadlines up front, so
			// this only covers degenerate probes.
			return 1, true
		}
		return prod.DeadlineHitRate, prod.DeadlineHitRate >= cfg.TargetHitRate
	default: // ObjectiveP99Wait
		if prod == nil {
			return 0, true
		}
		return prod.WaitSeconds.P99, prod.WaitSeconds.P99 <= cfg.TargetSeconds
	}
}

// searchKnee finds one tuple's knee: probe the base rate, geometrically
// double to bracket the first violation, bisect the bracket to Tolerance,
// then spot-check two interior scales (knee^⅓, knee^⅔) as the non-monotone
// guard — if a scale *below* the knee violates the target, the objective is
// not monotone in load and a bracketing search cannot be trusted, so the
// search fails loudly instead of reporting a fabricated knee.
func searchKnee(tr *Trace, cfg *SaturateConfig, base ReplayConfig) (*FrontierPoint, error) {
	var at Report
	base.stamp(&at)
	pt := &FrontierPoint{Router: at.Router, Scheduler: at.Scheduler, Admission: at.Admission,
		Priority: at.Priority, FleetSize: base.Devices}
	probeFn := cfg.probe
	if probeFn == nil {
		probeFn = replayValidated
	}
	probe := func(scale float64) (float64, bool, error) {
		c := base
		c.RateScale = scale
		rep, err := probeFn(tr, c)
		if err != nil {
			return 0, false, fmt.Errorf("probe at %gx: %w", scale, err)
		}
		pt.Probes++
		v, ok := saturateObjective(rep, cfg.Objective, cfg)
		return v, ok, nil
	}

	v, ok, err := probe(1)
	if err != nil {
		return nil, err
	}
	if !ok {
		pt.ViolatedAtBase = true
		pt.ObjectiveAtKnee = v
		pt.FirstViolation = 1
		return pt, nil
	}
	lo, loVal := 1.0, v
	hi := 0.0
	for s := 2.0; s <= cfg.MaxScale; s *= 2 {
		v, ok, err := probe(s)
		if err != nil {
			return nil, err
		}
		if ok {
			lo, loVal = s, v
		} else {
			hi = s
			break
		}
	}
	if hi == 0 {
		// Doubling never violated below MaxScale; probe the cap itself
		// unless a doubling step already landed on it.
		if lo < cfg.MaxScale {
			v, ok, err := probe(cfg.MaxScale)
			if err != nil {
				return nil, err
			}
			if ok {
				lo, loVal = cfg.MaxScale, v
			} else {
				hi = cfg.MaxScale
			}
		}
		if hi == 0 {
			pt.Capped = true
			pt.MaxSustainableScale = lo
			pt.ObjectiveAtKnee = loVal
			return pt, nil
		}
	}
	pt.FirstViolation = hi
	for hi/lo > 1+cfg.Tolerance {
		mid := (lo + hi) / 2
		v, ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo, loVal = mid, v
		} else {
			hi = mid
			pt.FirstViolation = mid
		}
	}
	pt.MaxSustainableScale = lo
	pt.ObjectiveAtKnee = loVal
	// Non-monotone guard: the bracketing search above only ever looked at
	// the knee's neighborhood; verify the objective holds at two interior
	// scales between 1× and the knee. A violation there means "sustainable
	// at the knee" was an artifact of a non-monotone objective.
	if lo > 1 {
		for _, s := range []float64{math.Cbrt(lo), math.Cbrt(lo * lo)} {
			if s <= 1 || s >= lo {
				continue
			}
			v, ok, err := probe(s)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("objective %s is not monotone in rate scale: %gx meets target but interior %gx violates it (%g) — knee bracketing cannot be trusted",
					cfg.Objective, lo, s, v)
			}
		}
	}
	return pt, nil
}

// Saturate runs the capacity-frontier search: for every policy tuple × fleet
// size, find the arrival-rate knee where the production objective blows past
// target, reusing the shared decoded trace and pooled replay state across
// all probes. Tuples run on a bounded worker pool; the report is in
// canonical axis order and byte-identical across reruns and worker counts.
func Saturate(tr *Trace, cfg SaturateConfig) (*FrontierReport, error) {
	if cfg.Devices == 0 {
		cfg.Devices = 4
	}
	if cfg.Objective == "" {
		cfg.Objective = ObjectiveP99Wait
	}
	if cfg.Objective != ObjectiveP99Wait && cfg.Objective != ObjectiveDeadlineHit {
		return nil, fmt.Errorf("loadgen: unknown saturation objective %q (%s, %s)", cfg.Objective, ObjectiveP99Wait, ObjectiveDeadlineHit)
	}
	if len(cfg.RateScales) > 0 || len(cfg.Preemptions) > 0 || len(cfg.ShotScales) > 0 || cfg.Tracing {
		return nil, fmt.Errorf("loadgen: saturate takes no rate scales, preemptions, shot scales or tracing (the search owns the rate; a frontier point names none of the others)")
	}
	// Zero means "default"; NaN fails every comparison below, so each check
	// is written as what a valid value must satisfy.
	if cfg.TargetSeconds == 0 {
		cfg.TargetSeconds = 120
	}
	if !(cfg.TargetSeconds > 0) || math.IsInf(cfg.TargetSeconds, 0) {
		return nil, fmt.Errorf("loadgen: p99-wait target %g (want finite seconds > 0)", cfg.TargetSeconds)
	}
	if cfg.TargetHitRate == 0 {
		cfg.TargetHitRate = 0.95
	}
	if !(cfg.TargetHitRate > 0 && cfg.TargetHitRate <= 1) {
		return nil, fmt.Errorf("loadgen: deadline-hit target %g is not a rate in (0, 1]", cfg.TargetHitRate)
	}
	if cfg.MaxScale == 0 {
		cfg.MaxScale = 64
	}
	if !(cfg.MaxScale > 1) || math.IsInf(cfg.MaxScale, 0) {
		return nil, fmt.Errorf("loadgen: saturation max scale %g (want a finite multiplier > 1)", cfg.MaxScale)
	}
	if cfg.Tolerance == 0 {
		cfg.Tolerance = 0.05
	}
	if !(cfg.Tolerance > 0 && cfg.Tolerance < 1) {
		return nil, fmt.Errorf("loadgen: saturation tolerance %g (want a relative width in (0, 1))", cfg.Tolerance)
	}
	if cfg.CostPerDeviceHour == 0 {
		cfg.CostPerDeviceHour = 1
	}
	if !(cfg.CostPerDeviceHour > 0) || math.IsInf(cfg.CostPerDeviceHour, 0) {
		return nil, fmt.Errorf("loadgen: cost per device-hour %g (want a finite price > 0)", cfg.CostPerDeviceHour)
	}
	combos, err := sweepCombos(&cfg.SweepConfig)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if cfg.Objective == ObjectiveDeadlineHit {
		hasDeadline := false
		for i := range tr.Records {
			if tr.Records[i].DeadlineSeconds > 0 && tr.Records[i].Class == "production" {
				hasDeadline = true
				break
			}
		}
		if !hasDeadline {
			return nil, fmt.Errorf("loadgen: deadline-hit saturation needs production deadlines in the trace (generate with deadline contracts)")
		}
	}

	points := make([]*FrontierPoint, len(combos))
	err = runCombos("saturate", cfg.Workers, combos, func(i int) (err error) {
		points[i], err = searchKnee(tr, &cfg, combos[i])
		return err
	})
	if err != nil {
		return nil, err
	}

	target := cfg.TargetSeconds
	if cfg.Objective == ObjectiveDeadlineHit {
		target = cfg.TargetHitRate
	}
	rep := &FrontierReport{
		Trace:     tr.Header,
		Seed:      cfg.Seed,
		Objective: cfg.Objective,
		Target:    target,
		MaxScale:  cfg.MaxScale,
		Tolerance: cfg.Tolerance,
		Points:    points,
	}
	if h := tr.Header.Horizon().Hours(); h > 0 {
		rep.BaseJobsPerHour = float64(len(tr.Records)) / h
	}
	for _, pt := range points {
		pt.MaxSustainableJobsPerHour = rep.BaseJobsPerHour * pt.MaxSustainableScale
		if pt.MaxSustainableJobsPerHour > 0 {
			pt.CostPerThousandJobs = float64(pt.FleetSize) * cfg.CostPerDeviceHour /
				(pt.MaxSustainableJobsPerHour / 1000)
		}
	}
	// Cost ranking: cheapest met-SLO throughput first; unsustainable tuples
	// (no throughput, no cost quotient) sink to the bottom in frontier
	// order. The stable sort keeps ties in canonical order, so the ranking
	// is as deterministic as the frontier itself.
	ranking := make([]*FrontierPoint, len(points))
	copy(ranking, points)
	sort.SliceStable(ranking, func(i, j int) bool {
		a, b := ranking[i], ranking[j]
		if (a.CostPerThousandJobs > 0) != (b.CostPerThousandJobs > 0) {
			return a.CostPerThousandJobs > 0
		}
		if a.CostPerThousandJobs != b.CostPerThousandJobs {
			return a.CostPerThousandJobs < b.CostPerThousandJobs
		}
		return a.MaxSustainableJobsPerHour > b.MaxSustainableJobsPerHour
	})
	rep.Ranking = make([]*FrontierRank, len(ranking))
	for i, pt := range ranking {
		rep.Ranking[i] = &FrontierRank{
			Tuple:                     pt.Tuple(),
			FleetSize:                 pt.FleetSize,
			MaxSustainableScale:       pt.MaxSustainableScale,
			MaxSustainableJobsPerHour: pt.MaxSustainableJobsPerHour,
			CostPerThousandJobs:       pt.CostPerThousandJobs,
		}
	}
	return rep, nil
}
