package slurm

import (
	"testing"
	"time"

	"hpcqc/internal/simclock"
)

func stdPartitions() []Partition {
	return []Partition{
		{Name: "production", Priority: 100},
		{Name: "test", Priority: 50},
		{Name: "dev", Priority: 10},
	}
}

func newTestCluster(t *testing.T, clk *simclock.Clock, nodes, gres int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Clock:      clk,
		Nodes:      nodes,
		QPUGres:    gres,
		Partitions: stdPartitions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	clk := simclock.New()
	if _, err := NewCluster(ClusterConfig{Nodes: 1, Partitions: stdPartitions()}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewCluster(ClusterConfig{Clock: clk, Nodes: 0, Partitions: stdPartitions()}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := NewCluster(ClusterConfig{Clock: clk, Nodes: 1}); err == nil {
		t.Fatal("no partitions accepted")
	}
	dup := []Partition{{Name: "a", Priority: 1}, {Name: "a", Priority: 2}}
	if _, err := NewCluster(ClusterConfig{Clock: clk, Nodes: 1, Partitions: dup}); err == nil {
		t.Fatal("duplicate partition accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 4, 10)
	cases := []JobSpec{
		{Partition: "ghost", Nodes: 1, Walltime: time.Hour},
		{Partition: "dev", Nodes: 0, Walltime: time.Hour},
		{Partition: "dev", Nodes: 100, Walltime: time.Hour},
		{Partition: "dev", Nodes: 1, Walltime: 0},
		{Partition: "dev", Nodes: 1, Walltime: time.Hour, QPUUnits: 50},
	}
	for i, spec := range cases {
		if _, err := c.Submit(spec); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 4, 0)
	var startedEnv map[string]string
	var finished JobState
	id, err := c.Submit(JobSpec{
		Name: "j1", User: "alice", Partition: "production", Nodes: 2,
		Walltime: time.Hour, QPUResource: "qpu-onprem", Hint: "qc-balanced",
		OnStart:  func(_ int, env map[string]string) { startedEnv = env },
		OnFinish: func(_ int, st JobState) { finished = st },
	})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := c.JobInfo(id)
	if info.State != StateRunning {
		t.Fatalf("state = %s", info.State)
	}
	// Plugin resolved --qpu into env.
	if startedEnv["QRMI_RESOURCE"] != "qpu-onprem" {
		t.Fatalf("env = %v", startedEnv)
	}
	if startedEnv["QRMI_WORKLOAD_HINT"] != "qc-balanced" {
		t.Fatalf("hint env = %v", startedEnv)
	}
	if startedEnv["SLURM_JOB_PRIORITY"] != "100" {
		t.Fatalf("priority env = %v", startedEnv)
	}
	clk.Advance(time.Hour + time.Second)
	info, _ = c.JobInfo(id)
	if info.State != StateCompleted || finished != StateCompleted {
		t.Fatalf("final state = %s / %s", info.State, finished)
	}
}

func TestNodeExhaustionQueues(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 4, 0)
	id1, _ := c.Submit(JobSpec{Partition: "test", Nodes: 3, Walltime: time.Hour})
	id2, _ := c.Submit(JobSpec{Partition: "test", Nodes: 3, Walltime: time.Hour})
	i1, _ := c.JobInfo(id1)
	i2, _ := c.JobInfo(id2)
	if i1.State != StateRunning || i2.State != StatePending {
		t.Fatalf("states: %s %s", i1.State, i2.State)
	}
	clk.Advance(time.Hour + time.Second)
	i2, _ = c.JobInfo(id2)
	if i2.State != StateRunning {
		t.Fatalf("second job not started: %s", i2.State)
	}
	if i2.WaitTime < time.Hour {
		t.Fatalf("wait time = %s", i2.WaitTime)
	}
}

func TestGresExhaustionQueues(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 10, 10)
	// Two jobs each taking 6 of 10 QPU units cannot co-run.
	id1, _ := c.Submit(JobSpec{Partition: "test", Nodes: 1, Walltime: time.Hour, QPUUnits: 6})
	id2, _ := c.Submit(JobSpec{Partition: "test", Nodes: 1, Walltime: time.Hour, QPUUnits: 6})
	i1, _ := c.JobInfo(id1)
	i2, _ := c.JobInfo(id2)
	if i1.State != StateRunning || i2.State != StatePending {
		t.Fatalf("states: %s %s", i1.State, i2.State)
	}
	// But a 4-unit job fits alongside (backfill-free case: it is next by
	// priority after the blocked 6-unit job and finishes within its shadow).
	id3, _ := c.Submit(JobSpec{Partition: "test", Nodes: 1, Walltime: 30 * time.Minute, QPUUnits: 4})
	i3, _ := c.JobInfo(id3)
	if i3.State != StateRunning {
		t.Fatalf("4-unit job did not backfill: %s", i3.State)
	}
}

func TestQPUShareEnv(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 4, 10)
	var env map[string]string
	c.Submit(JobSpec{
		Partition: "test", Nodes: 1, Walltime: time.Hour, QPUUnits: 3,
		OnStart: func(_ int, e map[string]string) { env = e },
	})
	if env["QRMI_QPU_SHARE"] != "0.3" {
		t.Fatalf("share env = %v", env)
	}
}

func TestPriorityOrdering(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 2, 0)
	// Fill the cluster with a production job, then queue a dev and another
	// production job.
	c.Submit(JobSpec{Partition: "production", Nodes: 2, Walltime: 30 * time.Minute})
	devID, _ := c.Submit(JobSpec{Partition: "dev", Nodes: 2, Walltime: time.Hour})
	prodID, _ := c.Submit(JobSpec{Partition: "production", Nodes: 2, Walltime: time.Hour})
	// When the first job ends, the later production job starts ahead of the
	// earlier dev job.
	clk.Advance(30 * time.Minute)
	prod, _ := c.JobInfo(prodID)
	dev, _ := c.JobInfo(devID)
	if prod.State != StateRunning || dev.State != StatePending {
		t.Fatalf("after the first job: prod %s, dev %s, want prod running", prod.State, dev.State)
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 4, 0)
	// Occupy 3 nodes for 1h.
	c.Submit(JobSpec{Partition: "test", Nodes: 3, Walltime: time.Hour})
	// Head job needs all 4 nodes → blocked until t=1h.
	headID, _ := c.Submit(JobSpec{Partition: "test", Nodes: 4, Walltime: time.Hour})
	// Short 1-node job fits in the backfill window (30m < 1h shadow).
	shortID, _ := c.Submit(JobSpec{Partition: "test", Nodes: 1, Walltime: 30 * time.Minute})
	// Long 1-node job would delay the head (2h > 1h shadow): must wait.
	longID, _ := c.Submit(JobSpec{Partition: "test", Nodes: 1, Walltime: 2 * time.Hour})

	short, _ := c.JobInfo(shortID)
	long, _ := c.JobInfo(longID)
	head, _ := c.JobInfo(headID)
	if short.State != StateRunning {
		t.Fatalf("short backfill job: %s", short.State)
	}
	if long.State != StatePending {
		t.Fatalf("long job backfilled past head: %s", long.State)
	}
	if head.State != StatePending {
		t.Fatalf("head: %s", head.State)
	}
	// Head starts when the 3-node job ends.
	clk.Advance(time.Hour + time.Second)
	head, _ = c.JobInfo(headID)
	if head.State != StateRunning {
		t.Fatalf("head at 1h: %s", head.State)
	}
	if head.WaitTime > time.Hour+time.Minute {
		t.Fatalf("head delayed by backfill: wait %s", head.WaitTime)
	}
}

func TestCancelPending(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 1, 0)
	c.Submit(JobSpec{Partition: "test", Nodes: 1, Walltime: time.Hour})
	var got JobState
	id2, _ := c.Submit(JobSpec{
		Partition: "test", Nodes: 1, Walltime: time.Hour,
		OnFinish: func(_ int, st JobState) { got = st },
	})
	if err := c.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	if got != StateCancelled {
		t.Fatalf("callback state = %s", got)
	}
	if err := c.Cancel(id2); err == nil {
		t.Fatal("double cancel accepted")
	}
	if err := c.Cancel(9999); err == nil {
		t.Fatal("unknown cancel accepted")
	}
}

func TestCancelRunningFreesResources(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 2, 0)
	id1, _ := c.Submit(JobSpec{Partition: "test", Nodes: 2, Walltime: time.Hour})
	id2, _ := c.Submit(JobSpec{Partition: "test", Nodes: 2, Walltime: time.Hour})
	c.Cancel(id1)
	i2, _ := c.JobInfo(id2)
	if i2.State != StateRunning {
		t.Fatalf("resources not freed: %s", i2.State)
	}
}

func TestActualRuntimeShorterThanWalltime(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 1, 0)
	id, _ := c.Submit(JobSpec{
		Partition: "test", Nodes: 1,
		Walltime: time.Hour, ActualRuntime: 10 * time.Minute,
	})
	clk.Advance(11 * time.Minute)
	info, _ := c.JobInfo(id)
	if info.State != StateCompleted {
		t.Fatalf("state = %s, want completed at actual runtime", info.State)
	}
}

func TestStatsUtilization(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 4, 10)
	c.Submit(JobSpec{Partition: "test", Nodes: 2, Walltime: time.Hour, QPUUnits: 5})
	clk.Advance(time.Hour)
	st := c.Stats()
	// 2 of 4 nodes for the whole hour → 0.5; 5 of 10 gres → 0.5.
	if st.NodeUtilization < 0.49 || st.NodeUtilization > 0.51 {
		t.Fatalf("node util = %g", st.NodeUtilization)
	}
	if st.GresUtilization < 0.49 || st.GresUtilization > 0.51 {
		t.Fatalf("gres util = %g", st.GresUtilization)
	}
}

func TestAgePriorityPromotesOldJobs(t *testing.T) {
	clk := simclock.New()
	c, err := NewCluster(ClusterConfig{
		Clock: clk, Nodes: 1,
		Partitions: []Partition{{Name: "hi", Priority: 2}, {Name: "lo", Priority: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(JobSpec{Partition: "hi", Nodes: 1, Walltime: 20 * time.Hour})
	oldID, _ := c.Submit(JobSpec{Partition: "lo", Nodes: 1, Walltime: time.Hour})
	clk.Advance(19 * time.Hour)
	newID, _ := c.Submit(JobSpec{Partition: "hi", Nodes: 1, Walltime: time.Hour})
	// A partition priority step is worth 1000 pending minutes: after 20h the
	// lower partition's job has aged past the hour-old higher one.
	clk.Advance(time.Hour)
	old, _ := c.JobInfo(oldID)
	young, _ := c.JobInfo(newID)
	if old.State != StateRunning || young.State != StatePending {
		t.Fatalf("age priority violated: old %s, new %s", old.State, young.State)
	}
}

func TestJobInfoUnknown(t *testing.T) {
	clk := simclock.New()
	c := newTestCluster(t, clk, 1, 0)
	if _, err := c.JobInfo(42); err == nil {
		t.Fatal("unknown job accepted")
	}
}
