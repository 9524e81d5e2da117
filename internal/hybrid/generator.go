package hybrid

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

// Generator builds randomized-but-reproducible job batches.
type Generator struct {
	rng   *rand.Rand
	specs map[sched.Pattern]workload.PatternSpec
	// Jitter randomizes segment durations by ±Jitter fraction (default 0.2).
	Jitter float64
	nextID int
}

// NewGenerator returns a deterministic generator for the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{
		rng:    rand.New(rand.NewSource(seed)),
		specs:  workload.DefaultPatternSpecs(),
		Jitter: 0.2,
	}
}

// jittered perturbs a duration by ±Jitter.
func (g *Generator) jittered(d time.Duration) time.Duration {
	f := 1 + (g.rng.Float64()*2-1)*g.Jitter
	out := time.Duration(float64(d) * f)
	if out < time.Second {
		out = time.Second
	}
	return out
}

// Job builds one hybrid job of the given pattern and class.
func (g *Generator) Job(p sched.Pattern, class sched.Class) (*HybridJob, error) {
	spec, ok := g.specs[p]
	if !ok {
		return nil, fmt.Errorf("hybrid: unknown pattern %q", p)
	}
	g.nextID++
	j := &HybridJob{
		ID:      fmt.Sprintf("%s-%d", p, g.nextID),
		Class:   class,
		Pattern: p,
	}
	for s := 0; s < spec.QuantumSegments; s++ {
		j.Segments = append(j.Segments, Segment{Quantum: true, Duration: g.jittered(spec.QuantumSeg)})
		j.Segments = append(j.Segments, Segment{Quantum: false, Duration: g.jittered(spec.ClassicalSeg)})
	}
	return j, nil
}

// Batch builds a shuffled batch for a mix; all jobs share the class.
func (g *Generator) Batch(m workload.Mix, class sched.Class) ([]*HybridJob, error) {
	if m.Total() == 0 {
		return nil, errors.New("hybrid: empty mix")
	}
	var jobs []*HybridJob
	add := func(p sched.Pattern, n int) error {
		for i := 0; i < n; i++ {
			j, err := g.Job(p, class)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
		return nil
	}
	if err := add(sched.PatternQCHeavy, m.QCHeavy); err != nil {
		return nil, err
	}
	if err := add(sched.PatternCCHeavy, m.CCHeavy); err != nil {
		return nil, err
	}
	if err := add(sched.PatternBalanced, m.Balanced); err != nil {
		return nil, err
	}
	g.rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}
