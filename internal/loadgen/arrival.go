// Package loadgen generates production-shaped traffic for the middleware
// fleet and measures how scheduling policy holds up under it. It provides:
//
//   - arrival-process generators (Poisson, bursty Markov-modulated on/off,
//     diurnal) composed with the Table 1 class and pattern mixes from
//     internal/workload, in open-loop (rate-driven) and closed-loop
//     (completion-driven) forms;
//   - a versioned JSONL trace format with record (capture arrivals — shed
//     ones included — from a live daemon run via Recorder), deterministic
//     replay (same seed and trace produce bit-identical schedule decisions,
//     admission verdicts included), and a Parallel Workloads Archive SWF
//     importer for archived production HPC logs;
//   - an SLO analyzer over daemon job lifecycle events: per-class and
//     per-partition p50/p95/p99 wait and slowdown, preemption counts,
//     utilization, and per-class shed rate / goodput under admission
//     control, exported through telemetry.Metric histograms;
//   - a what-if sweep driver that replays one trace against the full
//     router × scheduler × admission policy matrix concurrently, one fleet
//     per goroutine on its own virtual clock.
//
// Everything runs on the simclock event loop, so a 24-hour trace with
// thousands of jobs sweeps the whole policy matrix in seconds of wall clock.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hpcqc/internal/simclock"
)

// ArrivalProcess produces the arrival instants of an open-loop load. Next
// returns the absolute simulation time of the first arrival strictly after
// `after`, drawing randomness only from rng — so a fixed seed yields a fixed
// arrival sequence. Implementations may keep internal phase state (bursty
// processes do); use a fresh instance per generation run.
type ArrivalProcess interface {
	// Name identifies the process in trace headers.
	Name() string
	// Next returns the next arrival time after `after`.
	Next(rng *rand.Rand, after time.Duration) time.Duration
	// Validate rejects non-generative parameter sets (zero rates, negative
	// durations) before a generation loop can spin on them.
	Validate() error
}

// expDelay draws an exponential interarrival delay for a rate in events/hour.
func expDelay(rng *rand.Rand, ratePerHour float64) time.Duration {
	return simclock.Seconds(rng.ExpFloat64() * 3600 / ratePerHour)
}

// Poisson is a homogeneous Poisson arrival process: independent exponential
// interarrival times at a constant rate. The memoryless baseline every
// queueing result is quoted against.
type Poisson struct {
	RatePerHour float64
}

// Name implements ArrivalProcess.
func (p *Poisson) Name() string { return "poisson" }

// Validate implements ArrivalProcess.
func (p *Poisson) Validate() error {
	if p.RatePerHour <= 0 {
		return fmt.Errorf("loadgen: poisson rate must be positive, got %g", p.RatePerHour)
	}
	return nil
}

// Next implements ArrivalProcess.
func (p *Poisson) Next(rng *rand.Rand, after time.Duration) time.Duration {
	return after + expDelay(rng, p.RatePerHour)
}

// Bursty is a Markov-modulated on/off process: exponentially-distributed
// burst and idle phases, each phase a Poisson process at its own rate. It
// models the campaign-style traffic hybrid HPC-QC sites see — a workflow
// submits a storm of jobs, then goes quiet while classical post-processing
// runs.
type Bursty struct {
	// BurstRatePerHour is the arrival rate inside a burst.
	BurstRatePerHour float64
	// IdleRatePerHour is the background rate between bursts (may be 0).
	IdleRatePerHour float64
	// MeanBurst and MeanIdle are the mean phase lengths.
	MeanBurst time.Duration
	MeanIdle  time.Duration

	started  bool
	on       bool
	phaseEnd time.Duration
}

// Name implements ArrivalProcess.
func (b *Bursty) Name() string { return "bursty" }

// Validate implements ArrivalProcess.
func (b *Bursty) Validate() error {
	if b.BurstRatePerHour <= 0 {
		return fmt.Errorf("loadgen: bursty burst rate must be positive, got %g", b.BurstRatePerHour)
	}
	if b.IdleRatePerHour < 0 {
		return fmt.Errorf("loadgen: bursty idle rate must be non-negative, got %g", b.IdleRatePerHour)
	}
	if b.MeanBurst <= 0 || b.MeanIdle <= 0 {
		return fmt.Errorf("loadgen: bursty phase lengths must be positive, got on=%s off=%s", b.MeanBurst, b.MeanIdle)
	}
	return nil
}

// Next implements ArrivalProcess. Discarding a candidate that overshoots the
// phase boundary and resampling from the boundary is distribution-preserving
// for exponential interarrivals (memorylessness), so phase switches do not
// bias the rates.
func (b *Bursty) Next(rng *rand.Rand, after time.Duration) time.Duration {
	cur := after
	if !b.started {
		b.started = true
		b.on = true
		b.phaseEnd = cur + expPhase(rng, b.MeanBurst)
	}
	for {
		rate := b.BurstRatePerHour
		if !b.on {
			rate = b.IdleRatePerHour
		}
		if rate > 0 {
			if t := cur + expDelay(rng, rate); t < b.phaseEnd {
				return t
			}
		}
		cur = b.phaseEnd
		b.on = !b.on
		if b.on {
			b.phaseEnd = cur + expPhase(rng, b.MeanBurst)
		} else {
			b.phaseEnd = cur + expPhase(rng, b.MeanIdle)
		}
	}
}

// expPhase draws an exponential phase length with the given mean.
func expPhase(rng *rand.Rand, mean time.Duration) time.Duration {
	return simclock.Seconds(rng.ExpFloat64() * mean.Seconds())
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a daily
// sinusoid between a base and a peak — the "day of production-shaped
// traffic" profile, sampled by Lewis-Shedler thinning against the peak rate.
type Diurnal struct {
	BaseRatePerHour float64
	PeakRatePerHour float64
	// Peak is the time-of-day of maximum rate (e.g. 14h).
	Peak time.Duration
}

// Name implements ArrivalProcess.
func (d *Diurnal) Name() string { return "diurnal" }

// Validate implements ArrivalProcess.
func (d *Diurnal) Validate() error {
	if d.PeakRatePerHour <= 0 {
		return fmt.Errorf("loadgen: diurnal peak rate must be positive, got %g", d.PeakRatePerHour)
	}
	if d.BaseRatePerHour < 0 || d.BaseRatePerHour > d.PeakRatePerHour {
		return fmt.Errorf("loadgen: diurnal base rate must be within [0, peak], got %g", d.BaseRatePerHour)
	}
	return nil
}

// Rate returns the instantaneous arrival rate (events/hour) at simulation
// time t.
func (d *Diurnal) Rate(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t-d.Peak) / float64(24*time.Hour)
	return d.BaseRatePerHour + (d.PeakRatePerHour-d.BaseRatePerHour)*(1+math.Cos(phase))/2
}

// Next implements ArrivalProcess.
func (d *Diurnal) Next(rng *rand.Rand, after time.Duration) time.Duration {
	cur := after
	for {
		cur += expDelay(rng, d.PeakRatePerHour)
		if rng.Float64()*d.PeakRatePerHour <= d.Rate(cur) {
			return cur
		}
	}
}

// NewProcess builds an arrival process by name with the default parameter
// shapes, scaled so `rate` is the long-run mean arrival rate in jobs/hour —
// the switch behind qcload's -process flag.
func NewProcess(name string, ratePerHour float64) (ArrivalProcess, error) {
	switch name {
	case "poisson", "":
		return &Poisson{RatePerHour: ratePerHour}, nil
	case "bursty":
		// 1/6 duty cycle: bursts at ~5.5× the mean rate for 10 minutes,
		// then a 50-minute lull at ~10% of the mean.
		return &Bursty{
			BurstRatePerHour: ratePerHour * 5.5,
			IdleRatePerHour:  ratePerHour * 0.1,
			MeanBurst:        10 * time.Minute,
			MeanIdle:         50 * time.Minute,
		}, nil
	case "diurnal":
		// Sinusoid averaging to `rate`: base at 20%, peak at 180%.
		return &Diurnal{
			BaseRatePerHour: ratePerHour * 0.2,
			PeakRatePerHour: ratePerHour * 1.8,
			Peak:            14 * time.Hour,
		}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q (poisson, bursty, diurnal)", name)
	}
}
