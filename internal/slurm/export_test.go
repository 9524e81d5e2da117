package slurm

import (
	"fmt"
	"time"
)

// StateCancelled was cancelled by user or admin.
const StateCancelled JobState = "CANCELLED"

// JobInfo is the externally visible job view.
type JobInfo struct {
	ID        int           `json:"id"`
	Name      string        `json:"name"`
	User      string        `json:"user"`
	Partition string        `json:"partition"`
	State     JobState      `json:"state"`
	Nodes     int           `json:"nodes"`
	QPUUnits  int           `json:"qpu_units"`
	Hint      string        `json:"hint"`
	Priority  float64       `json:"priority"`
	SubmitAt  time.Duration `json:"submit_at"`
	StartAt   time.Duration `json:"start_at"`
	EndAt     time.Duration `json:"end_at"`
	WaitTime  time.Duration `json:"wait_time"`
}

// Cancel removes a pending job or stops a running one.
func (c *Cluster) Cancel(id int) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("slurm: unknown job %d", id)
	}
	switch j.State {
	case StatePending:
		for i, p := range c.pending {
			if p == j {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
		j.State = StateCancelled
		j.EndAt = c.cfg.Clock.Now()
		c.mu.Unlock()
		if j.Spec.OnFinish != nil {
			j.Spec.OnFinish(j.ID, StateCancelled)
		}
		return nil
	case StateRunning:
		c.mu.Unlock()
		c.complete(j, StateCancelled)
		return nil
	default:
		c.mu.Unlock()
		return fmt.Errorf("slurm: job %d already %s", id, j.State)
	}
}

// JobInfo returns the externally visible state of a job.
func (c *Cluster) JobInfo(id int) (JobInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("slurm: unknown job %d", id)
	}
	info := JobInfo{
		ID:        j.ID,
		Name:      j.Spec.Name,
		User:      j.Spec.User,
		Partition: j.Spec.Partition,
		State:     j.State,
		Nodes:     j.Spec.Nodes,
		QPUUnits:  j.Spec.QPUUnits,
		Hint:      j.Spec.Hint,
		Priority:  c.priority(j),
		SubmitAt:  j.SubmitAt,
		StartAt:   j.StartAt,
		EndAt:     j.EndAt,
	}
	if j.State == StateRunning || j.State == StateCompleted || j.State == StateCancelled {
		info.WaitTime = j.StartAt - j.SubmitAt
	}
	return info, nil
}
