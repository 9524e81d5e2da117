package loadgen

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/policy"
)

// SweepConfig parameterizes a policy what-if sweep.
type SweepConfig struct {
	// Devices and Seed are shared by every combination. Devices is the
	// fleet size when FleetSizes is empty (0 = 4).
	Devices int
	Seed    int64
	// Routers, Schedulers and Admissions are the policy axes, each entry a
	// spec on that axis's registry; a single "all" entry (or an empty slice)
	// expands to the full axis (see sweepAxes for what "all" routers means).
	Routers    []string
	Schedulers []string
	Admissions []string
	// Priorities is the fourth axis — the dynamic-urgency policies. Unlike
	// the other axes, empty defaults to just the axis default (the identity
	// policy), so existing three-axis sweeps are unchanged; a single "all"
	// expands to every priority policy.
	Priorities []string
	// FleetSizes, Preemptions, RateScales and ShotScales are the
	// generalized axes — dimensions the replay driver always accepted as
	// config but the sweep never crossed. Each empty slice keeps the axis
	// at its singleton default (Devices-sized fleet, preemption "on",
	// scales 1), so existing sweeps keep their exact combination lists and
	// report bytes. Preemptions entries are "on"/"off"; scales must be
	// positive.
	FleetSizes  []int
	Preemptions []string
	RateScales  []float64
	ShotScales  []float64
	// Workers bounds the replay worker pool (default GOMAXPROCS). A
	// thousand-cell sweep runs Workers fleets at a time — live heap
	// O(workers) — instead of one goroutine-per-cell free-for-all; the
	// worker count never affects report bytes, only wall clock.
	Workers int
	// Tracing runs every combination with span emission, so each cell's
	// report carries the per-class per-stage latency attribution.
	Tracing bool
	// ProgramCache and SetupSeconds configure the per-partition program
	// cache for every combination (see ReplayConfig). Zero keeps every
	// cell's report byte-identical to a cache-less sweep.
	ProgramCache int
	SetupSeconds float64
}

// SweepReport is the machine-readable policy comparison: one SLO report per
// axis combination, in canonical axis order — router-major, then scheduler,
// admission, priority, fleet size, preemption, rate scale, shot scale.
// Serializing it with encoding/json is deterministic (map keys sort), so
// identical sweeps yield byte-identical files regardless of worker count.
type SweepReport struct {
	Trace   TraceHeader `json:"trace"`
	Devices int         `json:"devices"`
	Seed    int64       `json:"seed"`
	// ProgramCache and SetupSeconds record the cache model the sweep ran
	// under; omitted (and the cells unchanged) when caching was off.
	ProgramCache int     `json:"program_cache,omitempty"`
	SetupSeconds float64 `json:"setup_seconds,omitempty"`
	// FleetSizes, Preemptions, RateScales and ShotScales record the
	// generalized axes when the sweep crossed them; omitted — and the cells
	// unstamped — for sweeps that never name them.
	FleetSizes  []int     `json:"fleet_sizes,omitempty"`
	Preemptions []string  `json:"preemptions,omitempty"`
	RateScales  []float64 `json:"rate_scales,omitempty"`
	ShotScales  []float64 `json:"shot_scales,omitempty"`
	Results     []*Report `json:"results"`
}

// sweepAxis is one dimension of the sweep cross-product: n values, each
// checked once, and how value i lands in a cell's ReplayConfig.
type sweepAxis struct {
	n     int
	check func(i int) error
	set   func(rc *ReplayConfig, i int)
}

// axisOf builds an axis over vals; a value that fails ok is reported against
// what the axis wants.
func axisOf[V any](name string, vals []V, ok func(V) bool, want string, set func(*ReplayConfig, V)) sweepAxis {
	return sweepAxis{len(vals), func(i int) error {
		if !ok(vals[i]) {
			return fmt.Errorf("loadgen: sweep %s %v (want %s)", name, vals[i], want)
		}
		return nil
	}, func(rc *ReplayConfig, i int) { set(rc, vals[i]) }}
}

// orDefault is the values a config names for an axis, or the single default
// when it names none — which is what keeps a sweep that never mentions an
// axis on its exact pre-axis combination list.
func orDefault[V any](named []V, def V) []V {
	if len(named) == 0 {
		return []V{def}
	}
	return named
}

// policyAxis is an axis over a policy registry: values are specs, checked by
// constructing each once; naming nothing, or a lone "all", means the list all.
func policyAxis[T interface{ Name() string }](reg *policy.Registry[T], named, all []string, set func(*ReplayConfig, string)) sweepAxis {
	if len(named) == 0 || (len(named) == 1 && named[0] == "all") {
		named = all
	}
	return sweepAxis{len(named), func(i int) error { _, err := reg.New(named[i]); return err },
		func(rc *ReplayConfig, i int) { set(rc, named[i]) }}
}

// sweepAxes is the axis table, outermost first — the canonical cell order.
// Adding a sweep axis is one row here plus its SweepConfig field.
func sweepAxes(cfg *SweepConfig) []sweepAxis {
	// "all" routers — and the unnamed router axis — is the cache-independent
	// ones: the affinity router is inert without a program cache, so it joins
	// a sweep only by name, which keeps the default matrix at 36 cells.
	var routers []string
	for _, name := range daemon.Routers.Names() {
		if name != daemon.AffinityRouter {
			routers = append(routers, name)
		}
	}
	orders, admissions, priorities := daemon.Orders.Names(), admission.Policies.Names(), daemon.Priorities.Names()
	scale := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	return []sweepAxis{
		policyAxis(daemon.Routers, cfg.Routers, routers, func(rc *ReplayConfig, v string) { rc.Router = v }),
		policyAxis(daemon.Orders, cfg.Schedulers, orders, func(rc *ReplayConfig, v string) { rc.Scheduler = v }),
		policyAxis(admission.Policies, cfg.Admissions, admissions, func(rc *ReplayConfig, v string) { rc.Admission = v }),
		// The priority axis defaults to its identity policy alone — not the
		// full axis — so a sweep that never mentions priorities keeps its
		// exact pre-axis combination list and report bytes.
		policyAxis(daemon.Priorities, orDefault(cfg.Priorities, daemon.Priorities.Default()), priorities, func(rc *ReplayConfig, v string) { rc.Priority = v }),
		axisOf("fleet size", orDefault(cfg.FleetSizes, cfg.Devices), func(n int) bool { return n >= 1 },
			"at least one partition per fleet", func(rc *ReplayConfig, n int) { rc.Devices = n }),
		axisOf("preemption", orDefault(cfg.Preemptions, "on"), func(p string) bool { return p == "on" || p == "off" },
			"on or off", func(rc *ReplayConfig, p string) { rc.DisablePreemption = p == "off" }),
		axisOf("rate scale", orDefault(cfg.RateScales, 1), scale,
			"a positive finite multiplier", func(rc *ReplayConfig, v float64) { rc.RateScale = v }),
		axisOf("shot scale", orDefault(cfg.ShotScales, 1), scale,
			"a positive finite multiplier", func(rc *ReplayConfig, v float64) { rc.ShotScale = v }),
	}
}

// sweepCombos validates every axis value once, then builds the full
// cross-product in canonical order — an odometer over sweepAxes, last axis
// fastest — on top of the fields every cell shares. Shared by Sweep and the
// saturation engine's tuple enumeration.
func sweepCombos(cfg *SweepConfig) ([]ReplayConfig, error) {
	axes := sweepAxes(cfg)
	total := 1
	for _, ax := range axes {
		for i := 0; i < ax.n; i++ {
			if err := ax.check(i); err != nil {
				return nil, err
			}
		}
		total *= ax.n
	}
	combos := make([]ReplayConfig, total)
	for k := range combos {
		rc := &combos[k]
		*rc = ReplayConfig{Seed: cfg.Seed, ProgramCache: cfg.ProgramCache, SetupSeconds: cfg.SetupSeconds, Tracing: cfg.Tracing}
		rem := k
		for a := len(axes) - 1; a >= 0; a-- {
			axes[a].set(rc, rem%axes[a].n)
			rem /= axes[a].n
		}
	}
	return combos, nil
}

// runCombos runs fn(i) once per combo on a bounded worker pool (default
// GOMAXPROCS workers, never more than combos) and returns the first failure
// in combo order, labelled with its combo. Workers draw indices from a
// channel; fn writes its result by index, which is what keeps output order
// canonical whatever the worker count or completion interleaving.
func runCombos(what string, workers int, combos []ReplayConfig, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, len(combos))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, len(combos))); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := range combos {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("loadgen: %s %s: %w", what, combos[i].label(), err)
		}
	}
	return nil
}

// Sweep replays one trace against every axis combination and collects the
// per-cell SLO reports. Cells run on a bounded worker pool (SweepConfig.
// Workers, see runCombos): each worker replays one cell at a time on
// its own virtual clock with its own policy instances — controller state
// never bleeds across combinations — while the trace, validated once, is
// shared read-only.
// The output is always in canonical axis order and byte-identical whatever
// the worker count. Per-cell scratch (daemon job
// records, analyzer state) returns to shared pools between cells, keeping a
// thousand-cell sweep's live heap O(workers), not O(cells).
func Sweep(tr *Trace, cfg SweepConfig) (*SweepReport, error) {
	if cfg.Devices == 0 {
		cfg.Devices = 4
	}
	combos, err := sweepCombos(&cfg)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	results := make([]*Report, len(combos))
	err = runCombos("sweep", cfg.Workers, combos, func(i int) (err error) {
		if results[i], err = replayValidated(tr, combos[i]); err == nil && len(cfg.FleetSizes) > 0 {
			results[i].FleetSize = combos[i].Devices
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &SweepReport{
		Trace:        tr.Header,
		Devices:      cfg.Devices,
		Seed:         cfg.Seed,
		ProgramCache: cfg.ProgramCache,
		SetupSeconds: cfg.SetupSeconds,
		FleetSizes:   cfg.FleetSizes,
		Preemptions:  cfg.Preemptions,
		RateScales:   cfg.RateScales,
		ShotScales:   cfg.ShotScales,
		Results:      results,
	}, nil
}
