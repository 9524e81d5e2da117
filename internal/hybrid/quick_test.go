package hybrid

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// TestOrchestratorConservationProperty: for any random batch under any
// policy, every job completes, QPU busy time equals the batch's total
// quantum time (no preemption in a single-class batch), and utilization
// never exceeds 1.
func TestOrchestratorConservationProperty(t *testing.T) {
	f := func(seed int64, policyPick uint8, nJobs uint8) bool {
		policy := []Policy{PolicyExclusiveFIFO, PolicyPriorityExclusive, PolicyInterleave}[int(policyPick)%3]
		n := int(nJobs)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.New()
		o, err := NewOrchestrator(clk, policy)
		if err != nil {
			return false
		}
		var totalQuantum time.Duration
		for i := 0; i < n; i++ {
			j := &HybridJob{ID: fmt.Sprintf("j%d", i), Class: sched.ClassTest}
			segs := rng.Intn(4) + 1
			for s := 0; s < segs; s++ {
				q := rng.Intn(2) == 0
				d := time.Duration(rng.Intn(50)+1) * time.Second
				j.Segments = append(j.Segments, Segment{Quantum: q, Duration: d})
				if q {
					totalQuantum += d
				}
			}
			if err := o.Submit(j); err != nil {
				return false
			}
		}
		clk.Run(200000) // generous event bound
		if !o.Done() {
			return false
		}
		m := o.Metrics()
		if m.QPUBusy != totalQuantum {
			return false
		}
		if m.QPUUtilization < 0 || m.QPUUtilization > 1.0000001 {
			return false
		}
		return m.JobsCompleted == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleaveNeverWorseProperty: on any batch, interleave's makespan is
// never worse than the exclusive baseline's (it only releases resources
// earlier; both use one QPU and unbounded classical compute).
func TestInterleaveNeverWorseProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		n := int(nJobs)%5 + 2
		build := func() []*HybridJob {
			rng := rand.New(rand.NewSource(seed))
			var jobs []*HybridJob
			for i := 0; i < n; i++ {
				j := &HybridJob{ID: fmt.Sprintf("j%d", i), Class: sched.ClassTest}
				segs := rng.Intn(3) + 1
				for s := 0; s < segs; s++ {
					j.Segments = append(j.Segments, Segment{
						Quantum:  rng.Intn(2) == 0,
						Duration: time.Duration(rng.Intn(40)+1) * time.Second,
					})
				}
				jobs = append(jobs, j)
			}
			return jobs
		}
		run := func(p Policy) time.Duration {
			clk := simclock.New()
			o, _ := NewOrchestrator(clk, p)
			for _, j := range build() {
				o.Submit(j)
			}
			clk.Run(200000)
			if !o.Done() {
				return -1
			}
			return o.Metrics().Makespan
		}
		excl := run(PolicyExclusiveFIFO)
		inter := run(PolicyInterleave)
		if excl < 0 || inter < 0 {
			return false
		}
		return inter <= excl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
