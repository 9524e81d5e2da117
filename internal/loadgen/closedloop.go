package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/workload"
)

// ClosedLoopConfig parameterizes completion-driven trace generation: a pool
// of synthetic users who each keep exactly one job in flight, submitting the
// next one a think-time after the previous finishes. Unlike the open-loop
// processes, the resulting arrival times depend on how fast the fleet drains
// — which is why closed-loop traces can only be made by capture from a live
// run.
type ClosedLoopConfig struct {
	Seed    int64
	Horizon time.Duration
	// Users is the number of concurrent closed-loop submitters (default 16).
	Users int
	// ThinkMean is the mean exponential think time between a completion and
	// the user's next submission (default 5m).
	ThinkMean time.Duration
	// Devices sizes the fleet driven during capture (0 = the default, 4).
	Devices int
	// Router, Scheduler and Admission are the specs of the policies the
	// capture run executes under ("" = each axis's default). Closed-loop
	// arrivals are completion-coupled, so the recorded trace depends on the
	// policies driving the run — capturing under the policy mix being
	// studied is the point of these knobs. Arrivals shed by the admission
	// stage are still recorded (they are offered load) and the shed user
	// backs off one think time before retrying.
	Router    string
	Scheduler string
	Admission string
	// Classes and Patterns shape each submission exactly as in the
	// open-loop Config.
	Classes  ClassMix
	Patterns workload.Mix
}

// GenerateClosedLoop runs a live fleet on a virtual clock under closed-loop
// load and captures the arrivals with a Recorder. The run executes under the
// configured router × scheduler × admission policies; the trace it yields
// can then be swept against any policy matrix.
func GenerateClosedLoop(cfg ClosedLoopConfig) (*Trace, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 24 * time.Hour
	}
	if cfg.Users <= 0 {
		cfg.Users = 16
	}
	if cfg.ThinkMean <= 0 {
		cfg.ThinkMean = 5 * time.Minute
	}
	if cfg.Devices == 0 {
		cfg.Devices = 4
	}
	shared := Config{Classes: cfg.Classes, Patterns: cfg.Patterns, Users: cfg.Users}.withDefaults()

	clk := simclock.New()
	rec := NewRecorder(canonicalShotRateHz)
	// owner maps an in-flight job to the user index waiting on it. Accessed
	// only from clock callbacks and the daemon's synchronous listener, which
	// all run on this goroutine.
	owner := make(map[string]int, cfg.Users)
	var submitUser func(u int)
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := workload.DefaultPatternSpecs()
	cache := sharedPrograms

	d, err := daemon.NewNode(daemon.NodeSpec{
		Partitions: cfg.Devices,
		// The recorder reads only submit and reject events, so no task
		// needs emulated counts.
		Device: device.Config{TimingOnly: true},
		Daemon: daemon.Config{Clock: clk, AdminToken: "loadgen", EnablePreemption: true, Seed: cfg.Seed,
			JobListener: func(ev daemon.JobEvent) {
				rec.Observe(ev)
				if ev.Type != daemon.JobEventFinished {
					return
				}
				u, ok := owner[ev.Job.ID]
				if !ok {
					return
				}
				delete(owner, ev.Job.ID)
				// The listener runs under daemon locks; hand the next submission
				// to the clock instead of re-entering the daemon here.
				think := simclock.Seconds(rng.ExpFloat64() * cfg.ThinkMean.Seconds())
				clk.Schedule(think, fmt.Sprintf("think-user-%02d", u), func() { submitUser(u) })
			},
		},
		Router: cfg.Router, Scheduler: cfg.Scheduler, Admission: cfg.Admission,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: closed-loop node: %w", err)
	}

	tokens := make([]string, cfg.Users)
	for u := range tokens {
		s, err := d.OpenSession(fmt.Sprintf("user-%02d", u))
		if err != nil {
			return nil, err
		}
		tokens[u] = s.Token
	}
	var submitErr error
	submitUser = func(u int) {
		if submitErr != nil || clk.Now() >= cfg.Horizon {
			return
		}
		job, err := sampleJob(rng, shared, specs)
		if err != nil {
			submitErr = err
			return
		}
		payload, err := cache.payload(job.Qubits, job.Shots)
		if err != nil {
			submitErr = err
			return
		}
		class, _ := job.ParsedClass()
		j, err := d.Submit(tokens[u], daemon.SubmitRequest{
			Program:            payload,
			Class:              class,
			Pattern:            sched.Pattern(job.Pattern),
			Source:             "loadgen",
			ExpectedQPUSeconds: job.ExpectedQPUSeconds,
		})
		if err != nil {
			var rej *daemon.RejectedError
			if errors.As(err, &rej) {
				// Shed at the door: the arrival is recorded as offered
				// load; the user backs off one think time and tries again.
				think := simclock.Seconds(rng.ExpFloat64() * cfg.ThinkMean.Seconds())
				clk.Schedule(think, fmt.Sprintf("shed-retry-user-%02d", u), func() { submitUser(u) })
				return
			}
			submitErr = err
			return
		}
		owner[j.ID] = u
	}
	// Stagger the pool's first submissions across one mean think time so the
	// capture does not open with a synchronized thundering herd.
	for u := 0; u < cfg.Users; u++ {
		u := u
		stagger := simclock.Seconds(rng.ExpFloat64() * cfg.ThinkMean.Seconds() / float64(cfg.Users))
		clk.Schedule(stagger, fmt.Sprintf("start-user-%02d", u), func() { submitUser(u) })
	}
	clk.RunUntil(cfg.Horizon)
	if submitErr != nil {
		return nil, submitErr
	}
	tr := rec.Trace(cfg.Seed, "closed-loop", cfg.Horizon.Microseconds())
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
