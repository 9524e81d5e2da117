package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/workload"
)

// canonicalShotRateHz matches qir.DefaultAnalogSpec: at 1 Hz, a job's shot
// count IS its QPU service time in simulation seconds.
const canonicalShotRateHz = 1.0

const (
	// serviceScale converts a pattern's nominal quantum footprint
	// (workload.PatternSpec.TotalQuantum) into the job's shot count at the
	// canonical 1 Hz shot rate: a QC-heavy job holds the QPU ~60 simulated
	// seconds.
	serviceScale = 0.2
	// jitter randomizes per-job shot counts by ±20 %.
	jitter = 0.2
	// maxJobs caps a generated trace's record count, a safety net against
	// runaway rates.
	maxJobs = 1_000_000
)

// ClassMix weights the paper's priority classes in generated traffic. A
// production site's intake is mostly dev churn with a thin production stream,
// so the default is 1:2:7.
type ClassMix struct {
	Production int
	Test       int
	Dev        int
}

// DefaultClassMix is the 1:2:7 production/test/dev split.
func DefaultClassMix() ClassMix { return ClassMix{Production: 1, Test: 2, Dev: 7} }

// Total returns the summed weights.
func (m ClassMix) Total() int { return m.Production + m.Test + m.Dev }

// Sample draws a class with probability proportional to the weights.
func (m ClassMix) Sample(rng *rand.Rand) (sched.Class, error) {
	total := m.Total()
	if total <= 0 {
		return 0, fmt.Errorf("loadgen: empty class mix")
	}
	n := rng.Intn(total)
	switch {
	case n < m.Production:
		return sched.ClassProduction, nil
	case n < m.Production+m.Test:
		return sched.ClassTest, nil
	default:
		return sched.ClassDev, nil
	}
}

// Config parameterizes open-loop trace generation.
type Config struct {
	// Seed drives every random draw.
	Seed int64
	// Horizon is the trace length (default 24h).
	Horizon time.Duration
	// Process is the arrival process (default Poisson at 150 jobs/hour).
	Process ArrivalProcess
	// Classes weights the priority classes (default 1:2:7).
	Classes ClassMix
	// Patterns weights the Table 1 patterns (default 1 QC-heavy : 1
	// CC-heavy : 2 balanced).
	Patterns workload.Mix
	// Users is the synthetic submitter pool size (default 8).
	Users int
	// Programs, when positive, quantizes each pattern's shot counts to a
	// fixed menu of Programs variants spread evenly across the ±jitter band
	// instead of drawing a continuous value — the repeated-program workload
	// shape (parameter sweeps, VQE iterations, shot batches) where program-
	// cache affinity matters: the whole trace reuses patterns × Programs
	// distinct payloads. Zero keeps the continuous draw.
	Programs int
	// Deadlines, when non-nil, stamps every record with a per-job completion
	// deadline from its class's contract: DeadlineSeconds =
	// spec.Offset(expected service). The stamp is a pure function of fields
	// already drawn, so a config differing only in Deadlines yields the same
	// arrivals, users, classes and shot counts — deadline columns aside, the
	// trace is unchanged. Nil (the default) emits no deadline fields and the
	// output is byte-identical to the pre-deadline format.
	Deadlines map[sched.Class]workload.DeadlineSpec
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 24 * time.Hour
	}
	if c.Process == nil {
		c.Process = &Poisson{RatePerHour: 150}
	}
	if c.Classes.Total() == 0 {
		c.Classes = DefaultClassMix()
	}
	if c.Patterns.Total() == 0 {
		c.Patterns = workload.Mix{QCHeavy: 1, CCHeavy: 1, Balanced: 2}
	}
	if c.Users <= 0 {
		c.Users = 8
	}
	return c
}

// sampleJob draws the per-arrival attributes shared by the open- and
// closed-loop generators: submitter, class, pattern and shot count.
func sampleJob(rng *rand.Rand, cfg Config, specs map[sched.Pattern]workload.PatternSpec) (Record, error) {
	class, err := cfg.Classes.Sample(rng)
	if err != nil {
		return Record{}, err
	}
	pattern, err := cfg.Patterns.Sample(rng)
	if err != nil {
		return Record{}, err
	}
	spec, ok := specs[pattern]
	if !ok {
		return Record{}, fmt.Errorf("loadgen: no pattern spec for %q", pattern)
	}
	base := spec.TotalQuantum().Seconds() * serviceScale
	var f float64
	if cfg.Programs > 0 {
		// Repeated-program mode: pick one of a fixed menu of per-pattern
		// variants, spread evenly across the jitter band, instead of a
		// continuous draw — every job is an exact re-run of one of
		// patterns × Programs canonical programs.
		f = 1.0
		if cfg.Programs > 1 {
			v := rng.Intn(cfg.Programs)
			f = 1 + (2*float64(v)/float64(cfg.Programs-1)-1)*jitter
		}
	} else {
		f = 1 + (rng.Float64()*2-1)*jitter
	}
	shots := int(math.Round(base * f))
	if shots < 1 {
		shots = 1
	}
	rec := Record{
		User:               fmt.Sprintf("user-%02d", rng.Intn(cfg.Users)),
		Class:              class.String(),
		Pattern:            string(pattern),
		Qubits:             2,
		Shots:              shots,
		ExpectedQPUSeconds: float64(shots) / canonicalShotRateHz,
	}
	if spec, ok := cfg.Deadlines[class]; ok {
		// Derived from already-drawn fields — no extra RNG consumption, so
		// deadline-stamped and unstamped configs generate identical arrivals.
		if off := spec.Offset(simclock.Seconds(rec.ExpectedQPUSeconds)); off > 0 {
			rec.DeadlineSeconds = off.Seconds()
		}
	}
	return rec, nil
}

// Generate synthesizes an open-loop trace: arrivals from the configured
// process, each stamped with a class, pattern, submitter and service demand.
// The result is a pure function of the config.
func Generate(cfg Config) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Process.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := workload.DefaultPatternSpecs()
	tr := &Trace{Header: TraceHeader{
		Format:    TraceFormat,
		Version:   TraceVersion,
		Mode:      "generated",
		Process:   cfg.Process.Name(),
		Seed:      cfg.Seed,
		HorizonUS: cfg.Horizon.Microseconds(),
	}}
	t := time.Duration(0)
	for {
		t = cfg.Process.Next(rng, t)
		if t >= cfg.Horizon {
			break
		}
		rec, err := sampleJob(rng, cfg, specs)
		if err != nil {
			return nil, err
		}
		rec.Seq = len(tr.Records)
		rec.AtUS = t.Microseconds()
		tr.Records = append(tr.Records, rec)
		if len(tr.Records) > maxJobs {
			return nil, fmt.Errorf("loadgen: trace exceeds %d jobs; lower the rate or horizon", maxJobs)
		}
	}
	tr.Header.Jobs = len(tr.Records)
	return tr, nil
}

// programCache builds and memoizes the canonical replay payload per
// (qubits, shots): a global π-pulse on a widely-spaced register, the cheapest
// program the device model accepts, whose QPU hold time is shots divided by
// the spec shot rate. Sharing payload bytes across jobs keeps a multi-
// thousand-job replay allocation-light.
type programCache struct {
	mu sync.Mutex
	by map[[2]int][]byte
}

func newProgramCache() *programCache {
	return &programCache{by: make(map[[2]int][]byte)}
}

// sharedPrograms is the process-wide payload cache. Payload bytes are a pure
// function of (qubits, shots), so replays and closed-loop runs share one
// cache: a what-if sweep builds and marshals each canonical program once,
// not once per policy combination.
var sharedPrograms = newProgramCache()

// payload returns the serialized program for a record's parameters.
func (c *programCache) payload(qubits, shots int) ([]byte, error) {
	key := [2]int{qubits, shots}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.by[key]; ok {
		return p, nil
	}
	p, err := BuildProgram(qubits, shots).MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("loadgen: building canonical program: %w", err)
	}
	c.by[key] = p
	return p, nil
}

// BuildProgram constructs the canonical load-generation program: a short
// global Rydberg drive on `qubits` atoms spaced far beyond the blockade
// radius. The pulse is deliberately brief (50 ns): a task's QPU hold time is
// set by its shot count at the device shot rate, not by the pulse length, so
// a minimal pulse keeps the emulator's per-execution integration cost — the
// replay hot path — from dominating a multi-thousand-job sweep.
func BuildProgram(qubits, shots int) *qir.Program {
	const pulseNs = 50
	seq := qir.NewAnalogSequence(qir.LinearRegister("loadgen", qubits, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: pulseNs, Val: 2 * math.Pi},
		Detuning:  qir.ConstantWaveform{Dur: pulseNs, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}
