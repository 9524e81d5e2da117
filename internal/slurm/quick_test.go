package slurm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hpcqc/internal/simclock"
)

// TestNoOversubscriptionProperty: whatever the submission stream, the
// cluster never allocates more nodes or GRES units than it has, at any
// instant of the simulation. Some jobs submit a follow-up job when they
// start, so a scheduling pass runs inside another pass's callbacks.
func TestNoOversubscriptionProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		clk := simclock.New()
		const nodes, gres = 8, 10
		cluster, err := NewCluster(ClusterConfig{
			Clock: clk, Nodes: nodes, QPUGres: gres,
			Partitions: []Partition{
				{Name: "hi", Priority: 100},
				{Name: "lo", Priority: 10},
			},
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		violated := false
		check := func() {
			s := cluster.Stats()
			if s.FreeNodes < 0 || s.FreeNodes > nodes || s.FreeGres < 0 || s.FreeGres > gres {
				violated = true
			}
		}
		newSpec := func(name string) JobSpec {
			part := "lo"
			if rng.Intn(2) == 0 {
				part = "hi"
			}
			return JobSpec{
				Name: name, User: "u", Partition: part,
				Nodes:    rng.Intn(nodes) + 1,
				Walltime: time.Duration(rng.Intn(300)+1) * time.Second,
				QPUUnits: rng.Intn(gres + 1),
				OnStart:  func(int, map[string]string) { check() },
				OnFinish: func(int, JobState) { check() },
			}
		}
		for i := 0; i < int(nJobs)%20+1; i++ {
			spec := newSpec(fmt.Sprintf("j%d", i))
			if rng.Intn(2) == 0 {
				next := newSpec(fmt.Sprintf("j%d-next", i))
				spec.OnStart = func(int, map[string]string) {
					check()
					if _, err := cluster.Submit(next); err != nil {
						violated = true
					}
					check()
				}
			}
			at := time.Duration(rng.Intn(600)) * time.Second
			clk.Schedule(at, "submit", func() {
				if _, err := cluster.Submit(spec); err != nil {
					violated = true
				}
			})
		}
		clk.Run(100000)
		check()
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAllJobsReachTerminalProperty: every accepted job eventually runs to a
// terminal state — nothing starves, whatever the priorities and sizes.
func TestAllJobsReachTerminalProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		clk := simclock.New()
		cluster, err := NewCluster(ClusterConfig{
			Clock: clk, Nodes: 4,
			Partitions: []Partition{
				{Name: "hi", Priority: 100},
				{Name: "lo", Priority: 10},
			},
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(nJobs)%15 + 1
		finished := 0
		var ids []int
		for i := 0; i < n; i++ {
			part := []string{"hi", "lo"}[rng.Intn(2)]
			id, err := cluster.Submit(JobSpec{
				Name: fmt.Sprintf("j%d", i), User: "u", Partition: part,
				Nodes:    rng.Intn(4) + 1,
				Walltime: time.Duration(rng.Intn(120)+1) * time.Second,
				OnFinish: func(int, JobState) { finished++ },
			})
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		clk.Run(100000)
		for _, id := range ids {
			info, err := cluster.JobInfo(id)
			if err != nil {
				return false
			}
			if info.State != StateCompleted && info.State != StateCancelled {
				return false
			}
		}
		return finished >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHigherPriorityStartsNoLaterProperty: for two identical jobs submitted
// at the same instant into different partitions, the higher-priority
// partition's job never starts after the lower one.
func TestHigherPriorityStartsNoLaterProperty(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		clk := simclock.New()
		cluster, err := NewCluster(ClusterConfig{
			Clock: clk, Nodes: 2,
			Partitions: []Partition{
				{Name: "hi", Priority: 100},
				{Name: "lo", Priority: 10},
			},
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		// Fill the cluster first so both jobs must queue.
		_, err = cluster.Submit(JobSpec{
			Name: "filler", User: "u", Partition: "lo", Nodes: 2,
			Walltime: time.Duration(rng.Intn(100)+30) * time.Second,
		})
		if err != nil {
			return false
		}
		var hiStart, loStart time.Duration
		runtime := time.Duration(int(width)%60+10) * time.Second
		_, err = cluster.Submit(JobSpec{
			Name: "lo-job", User: "u", Partition: "lo", Nodes: 2, Walltime: runtime,
			OnStart: func(int, map[string]string) { loStart = clk.Now() },
		})
		if err != nil {
			return false
		}
		_, err = cluster.Submit(JobSpec{
			Name: "hi-job", User: "u", Partition: "hi", Nodes: 2, Walltime: runtime,
			OnStart: func(int, map[string]string) { hiStart = clk.Now() },
		})
		if err != nil {
			return false
		}
		clk.Run(100000)
		return hiStart <= loStart
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
