// Package slurm is a discrete-event simulator of the subset of a batch
// resource manager that the paper's middleware interacts with: partitions
// with distinct priorities, node allocation, GRES/license counters for
// fractional QPU shares, EASY backfill, and a Spank-style plugin hook that
// resolves `--qpu=<resource>` into environment configuration for the runtime
// (paper §3.2, §3.4, §3.5). Preemption is not Slurm's job here: it lives in
// the middleware daemon's second scheduling layer (paper §3.3).
//
// The daemon consumes only this interface surface — job priority, partition,
// GRES — which is exactly why the simulator substitutes faithfully for a real
// Slurm here: the middleware cannot tell the difference.
package slurm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hpcqc/internal/simclock"
)

// JobState is the Slurm-visible lifecycle state.
type JobState string

const (
	// StatePending is queued, waiting for resources or priority.
	StatePending JobState = "PENDING"
	// StateRunning is allocated and executing.
	StateRunning JobState = "RUNNING"
	// StateCompleted finished normally.
	StateCompleted JobState = "COMPLETED"
)

const (
	// backfillDepth bounds how many pending jobs each scheduling pass
	// considers for backfill.
	backfillDepth = 50
	// agePriorityPerMinute adds to job priority per pending minute,
	// implementing Slurm's age factor.
	agePriorityPerMinute = 1.0
)

// Partition is a scheduling domain with a relative priority, mirroring the
// paper's mapping of job classes (production/test/development) to Slurm
// partitions (§3.3).
type Partition struct {
	Name string
	// Priority orders pending jobs across partitions; higher wins.
	Priority int
}

// ClusterConfig sizes the simulated machine.
type ClusterConfig struct {
	// Clock drives everything. Required.
	Clock *simclock.Clock
	// Nodes is the number of identical classical nodes.
	Nodes int
	// QPUGres is the number of QPU GRES units (the paper suggests 10,
	// i.e. timeshares in 10 % increments, §3.5). 0 disables QPU GRES.
	QPUGres int
	// Partitions define the scheduling domains. Required, at least one.
	Partitions []Partition
}

// JobSpec describes a submission.
type JobSpec struct {
	Name      string
	User      string
	Partition string
	// Nodes requested (≥1).
	Nodes int
	// Walltime is the requested time limit. The simulator also uses it as
	// the actual runtime unless ActualRuntime is set.
	Walltime time.Duration
	// ActualRuntime, when non-zero, is the real runtime (≤ Walltime),
	// modelling users who over-request.
	ActualRuntime time.Duration
	// QPUUnits requests QPU GRES units (fractional QPU share).
	QPUUnits int
	// QPUResource is the `--qpu=<resource>` plugin option: which quantum
	// resource the job's runtime should bind to.
	QPUResource string
	// Hint is the workload-pattern scheduler hint from the paper's
	// Table 1: "qc-heavy", "cc-heavy", "qc-balanced" or empty.
	Hint string
	// OnStart runs when the job starts (simulation callback). The env map
	// carries the plugin-resolved runtime configuration.
	OnStart func(jobID int, env map[string]string)
	// OnFinish runs when the job completes or is cancelled.
	OnFinish func(jobID int, state JobState)
}

// Job is the cluster's record of one submitted job.
type Job struct {
	ID        int
	Spec      JobSpec
	State     JobState
	SubmitAt  time.Duration
	StartAt   time.Duration
	EndAt     time.Duration
	endEvent  *simclock.Event
	partition *Partition
}

// Cluster is the simulated resource manager.
type Cluster struct {
	cfg ClusterConfig

	mu         sync.Mutex
	partitions map[string]*Partition
	jobs       map[int]*Job
	pending    []*Job
	running    map[int]*Job
	nextID     int

	freeNodes int
	freeGres  int

	// accounting
	nodeSecondsUsed float64
	gresSecondsUsed float64
	createdAt       time.Duration
}

// NewCluster validates the config and returns an idle cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Clock == nil {
		return nil, errors.New("slurm: config requires a clock")
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("slurm: need at least 1 node, got %d", cfg.Nodes)
	}
	if len(cfg.Partitions) == 0 {
		return nil, errors.New("slurm: need at least one partition")
	}
	c := &Cluster{
		cfg:        cfg,
		partitions: make(map[string]*Partition),
		jobs:       make(map[int]*Job),
		running:    make(map[int]*Job),
		freeNodes:  cfg.Nodes,
		freeGres:   cfg.QPUGres,
		createdAt:  cfg.Clock.Now(),
	}
	for i := range cfg.Partitions {
		p := cfg.Partitions[i]
		if p.Name == "" {
			return nil, errors.New("slurm: partition with empty name")
		}
		if _, dup := c.partitions[p.Name]; dup {
			return nil, fmt.Errorf("slurm: duplicate partition %q", p.Name)
		}
		c.partitions[p.Name] = &p
	}
	return c, nil
}

// Submit enqueues a job and triggers a scheduling pass.
func (c *Cluster) Submit(spec JobSpec) (int, error) {
	c.mu.Lock()
	p, ok := c.partitions[spec.Partition]
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: unknown partition %q", spec.Partition)
	}
	if spec.Nodes < 1 {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: job requests %d nodes", spec.Nodes)
	}
	if spec.Nodes > c.cfg.Nodes {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: job requests %d nodes, cluster has %d", spec.Nodes, c.cfg.Nodes)
	}
	if spec.QPUUnits < 0 || spec.QPUUnits > c.cfg.QPUGres {
		c.mu.Unlock()
		return 0, fmt.Errorf("slurm: job requests %d QPU units, cluster has %d", spec.QPUUnits, c.cfg.QPUGres)
	}
	if spec.Walltime <= 0 {
		c.mu.Unlock()
		return 0, errors.New("slurm: job needs a positive walltime")
	}
	if spec.ActualRuntime <= 0 || spec.ActualRuntime > spec.Walltime {
		spec.ActualRuntime = spec.Walltime
	}
	c.nextID++
	j := &Job{
		ID:        c.nextID,
		Spec:      spec,
		State:     StatePending,
		SubmitAt:  c.cfg.Clock.Now(),
		partition: p,
	}
	c.jobs[j.ID] = j
	c.pending = append(c.pending, j)
	c.mu.Unlock()
	c.Schedule()
	return j.ID, nil
}

// priority computes a job's current scheduling priority.
func (c *Cluster) priority(j *Job) float64 {
	age := (c.cfg.Clock.Now() - j.SubmitAt).Minutes()
	return float64(j.partition.Priority)*1000 + age*agePriorityPerMinute
}

// Schedule runs one scheduling pass: priority order with EASY backfill. It
// is idempotent and safe to call at any time.
func (c *Cluster) Schedule() {
	type startable struct {
		job *Job
		env map[string]string
	}
	var toStart []startable

	c.mu.Lock()
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return
	}
	// Sort pending by priority, descending; FIFO within equal priority.
	sort.SliceStable(c.pending, func(a, b int) bool {
		return c.priority(c.pending[a]) > c.priority(c.pending[b])
	})

	now := c.cfg.Clock.Now()
	freeNodes, freeGres := c.freeNodes, c.freeGres
	var stillPending []*Job
	headBlocked := false
	var shadowTime time.Duration // earliest start of the blocked head job
	for i, j := range c.pending {
		fits := j.Spec.Nodes <= freeNodes && j.Spec.QPUUnits <= freeGres
		// Behind a blocked head job, EASY backfill starts a job only if it
		// is among the first backfillDepth and finishes by the shadow time.
		if fits && (!headBlocked || (i < backfillDepth && now+j.Spec.Walltime <= shadowTime)) {
			freeNodes -= j.Spec.Nodes
			freeGres -= j.Spec.QPUUnits
			toStart = append(toStart, startable{j, c.resolvePluginLocked(j)})
			continue
		}
		if !headBlocked {
			headBlocked = true
			shadowTime = c.shadowTimeLocked(j.Spec.Nodes, j.Spec.QPUUnits, freeNodes, freeGres)
		}
		stillPending = append(stillPending, j)
	}
	c.pending = stillPending
	c.mu.Unlock()

	for _, s := range toStart {
		c.start(s.job, s.env)
	}
}

// shadowTimeLocked returns the earliest simulation time at which the blocked
// head job could start, assuming running jobs end at their walltime.
func (c *Cluster) shadowTimeLocked(needNodes, needGres, freeNodes, freeGres int) time.Duration {
	type release struct {
		at    time.Duration
		nodes int
		gres  int
	}
	releases := make([]release, 0, len(c.running))
	for _, j := range c.running {
		releases = append(releases, release{j.StartAt + j.Spec.Walltime, j.Spec.Nodes, j.Spec.QPUUnits})
	}
	sort.Slice(releases, func(a, b int) bool { return releases[a].at < releases[b].at })
	nodes, gres := freeNodes, freeGres
	for _, r := range releases {
		nodes += r.nodes
		gres += r.gres
		if nodes >= needNodes && gres >= needGres {
			return r.at
		}
	}
	// Unsatisfiable from running jobs alone; effectively no backfill window.
	return c.cfg.Clock.Now()
}

// resolvePluginLocked implements the Spank-style plugin: the `--qpu` option
// becomes environment configuration for the job's runtime, decoupling the
// quantum resource definition from program source (paper §2.1, §3.2).
func (c *Cluster) resolvePluginLocked(j *Job) map[string]string {
	env := map[string]string{
		"SLURM_JOB_ID":        fmt.Sprintf("%d", j.ID),
		"SLURM_JOB_PARTITION": j.Spec.Partition,
		"SLURM_JOB_USER":      j.Spec.User,
	}
	if j.Spec.QPUResource != "" {
		env["QRMI_RESOURCE"] = j.Spec.QPUResource
	}
	if j.Spec.QPUUnits > 0 && c.cfg.QPUGres > 0 {
		env["QRMI_QPU_SHARE"] = fmt.Sprintf("%g", float64(j.Spec.QPUUnits)/float64(c.cfg.QPUGres))
	}
	if j.Spec.Hint != "" {
		env["QRMI_WORKLOAD_HINT"] = j.Spec.Hint
	}
	// Priority propagates to the middleware daemon, which maps it onto its
	// second-level queue classes (paper §3.3: "the daemon retrieves the
	// job's priority from Slurm").
	env["SLURM_JOB_PRIORITY"] = fmt.Sprintf("%d", j.partition.Priority)
	return env
}

// start transitions a job to RUNNING and schedules its completion.
func (c *Cluster) start(j *Job, env map[string]string) {
	c.mu.Lock()
	if j.State != StatePending {
		c.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.StartAt = c.cfg.Clock.Now()
	c.freeNodes -= j.Spec.Nodes
	c.freeGres -= j.Spec.QPUUnits
	c.running[j.ID] = j
	j.endEvent = c.cfg.Clock.Schedule(j.Spec.ActualRuntime, fmt.Sprintf("slurm-end-%d", j.ID), func() {
		c.complete(j, StateCompleted)
	})
	c.mu.Unlock()
	if j.Spec.OnStart != nil {
		j.Spec.OnStart(j.ID, env)
	}
}

// complete finishes a running job with the given terminal state.
func (c *Cluster) complete(j *Job, state JobState) {
	c.mu.Lock()
	if j.State != StateRunning {
		c.mu.Unlock()
		return
	}
	c.cfg.Clock.Cancel(j.endEvent)
	j.State = state
	j.EndAt = c.cfg.Clock.Now()
	elapsed := (j.EndAt - j.StartAt).Seconds()
	c.nodeSecondsUsed += elapsed * float64(j.Spec.Nodes)
	c.gresSecondsUsed += elapsed * float64(j.Spec.QPUUnits)
	c.freeNodes += j.Spec.Nodes
	c.freeGres += j.Spec.QPUUnits
	delete(c.running, j.ID)
	c.mu.Unlock()
	if j.Spec.OnFinish != nil {
		j.Spec.OnFinish(j.ID, state)
	}
	c.Schedule()
}

// Stats summarizes cluster usage.
type Stats struct {
	Nodes           int           `json:"nodes"`
	FreeNodes       int           `json:"free_nodes"`
	QPUGres         int           `json:"qpu_gres"`
	FreeGres        int           `json:"free_gres"`
	Pending         int           `json:"pending"`
	Running         int           `json:"running"`
	NodeUtilization float64       `json:"node_utilization"`
	GresUtilization float64       `json:"gres_utilization"`
	Elapsed         time.Duration `json:"elapsed"`
}

// Stats returns usage counters including time-integrated utilization.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	elapsed := (now - c.createdAt).Seconds()
	s := Stats{
		Nodes:     c.cfg.Nodes,
		FreeNodes: c.freeNodes,
		QPUGres:   c.cfg.QPUGres,
		FreeGres:  c.freeGres,
		Pending:   len(c.pending),
		Running:   len(c.running),
		Elapsed:   now - c.createdAt,
	}
	nodeSec := c.nodeSecondsUsed
	gresSec := c.gresSecondsUsed
	for _, j := range c.running {
		run := (now - j.StartAt).Seconds()
		nodeSec += run * float64(j.Spec.Nodes)
		gresSec += run * float64(j.Spec.QPUUnits)
	}
	if elapsed > 0 {
		s.NodeUtilization = nodeSec / (elapsed * float64(c.cfg.Nodes))
		if c.cfg.QPUGres > 0 {
			s.GresUtilization = gresSec / (elapsed * float64(c.cfg.QPUGres))
		}
	}
	return s
}
