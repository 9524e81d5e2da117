// Package hybrid is the classical side of a hybrid job: MalleablePool, the
// worker pool of the §2.4 malleability ablation (internal/experiments A7).
// The quantum side — Table 1's segment chains — runs on the daemon itself.
package hybrid

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hpcqc/internal/simclock"
)

// Malleable jobs (paper §2.4, following Viviani et al. [25] and Tarraf et
// al. [24]) can grow or shrink their classical worker allocation at run
// time, letting the resource manager keep the classical partition busy while
// hybrid jobs block on the QPU. MalleablePool models a classical worker pool
// with equipartition-style dynamic reallocation; the ablation experiment
// compares rigid (min = max) against malleable tasks on the same trace.

// MalleableTask is a divisible classical workload.
type MalleableTask struct {
	ID string
	// Work is the total compute demand in worker-seconds.
	Work float64
	// MinWorkers and MaxWorkers bound the allocation. MinWorkers ==
	// MaxWorkers models a rigid (moldable-at-best) job.
	MinWorkers int
	MaxWorkers int

	remaining float64
	workers   int
	arrived   time.Duration
	started   bool
	startAt   time.Duration
	endAt     time.Duration
	done      bool
}

// Validate checks task invariants.
func (t *MalleableTask) Validate(poolSize int) error {
	if t.ID == "" {
		return errors.New("hybrid: malleable task needs an ID")
	}
	if t.Work <= 0 {
		return fmt.Errorf("hybrid: task %s needs positive work", t.ID)
	}
	if t.MinWorkers < 1 || t.MaxWorkers < t.MinWorkers {
		return fmt.Errorf("hybrid: task %s has invalid worker bounds [%d,%d]", t.ID, t.MinWorkers, t.MaxWorkers)
	}
	if t.MinWorkers > poolSize {
		return fmt.Errorf("hybrid: task %s needs %d workers, pool has %d", t.ID, t.MinWorkers, poolSize)
	}
	return nil
}

// MalleablePool schedules malleable tasks on a fixed worker pool with
// dynamic equipartition: every reallocation gives each running task its
// minimum, then spreads the surplus round-robin up to each task's maximum.
type MalleablePool struct {
	clock   *simclock.Clock
	size    int
	mu      sync.Mutex
	active  []*MalleableTask
	queue   []*MalleableTask
	all     map[string]*MalleableTask
	event   *simclock.Event
	lastUpd time.Duration

	busyWorkerSeconds float64
	createdAt         time.Duration
	lastEnd           time.Duration
	doneN             int
}

// NewMalleablePool returns a pool of `workers` classical workers.
func NewMalleablePool(clock *simclock.Clock, workers int) (*MalleablePool, error) {
	if clock == nil {
		return nil, errors.New("hybrid: malleable pool requires a clock")
	}
	if workers < 1 {
		return nil, fmt.Errorf("hybrid: pool needs at least 1 worker, got %d", workers)
	}
	return &MalleablePool{
		clock:     clock,
		size:      workers,
		all:       make(map[string]*MalleableTask),
		lastUpd:   clock.Now(),
		createdAt: clock.Now(),
	}, nil
}

// Submit enqueues a task and reallocates.
func (p *MalleablePool) Submit(t *MalleableTask) error {
	if err := t.Validate(p.size); err != nil {
		return err
	}
	p.mu.Lock()
	if _, dup := p.all[t.ID]; dup {
		p.mu.Unlock()
		return fmt.Errorf("hybrid: duplicate task %q", t.ID)
	}
	t.remaining = t.Work
	t.arrived = p.clock.Now()
	p.all[t.ID] = t
	p.queue = append(p.queue, t)
	p.mu.Unlock()
	p.reallocate()
	return nil
}

// progressLocked advances all running tasks to the current instant.
func (p *MalleablePool) progressLocked(now time.Duration) {
	dt := (now - p.lastUpd).Seconds()
	if dt <= 0 {
		return
	}
	for _, t := range p.active {
		t.remaining -= float64(t.workers) * dt
		if t.remaining < 1e-9 {
			t.remaining = 0
		}
		p.busyWorkerSeconds += float64(t.workers) * dt
	}
	p.lastUpd = now
}

// reallocate is the scheduling core: finish exhausted tasks, admit queued
// tasks whose minimum fits, equipartition the pool, and schedule the next
// completion event.
func (p *MalleablePool) reallocate() {
	p.mu.Lock()
	now := p.clock.Now()
	p.progressLocked(now)

	// Retire finished tasks.
	var stillActive []*MalleableTask
	for _, t := range p.active {
		if t.remaining <= 0 {
			t.done = true
			t.endAt = now
			p.doneN++
			if now > p.lastEnd {
				p.lastEnd = now
			}
			continue
		}
		stillActive = append(stillActive, t)
	}
	p.active = stillActive

	// Admit queued tasks while their minimums fit.
	usedMin := 0
	for _, t := range p.active {
		usedMin += t.MinWorkers
	}
	var stillQueued []*MalleableTask
	for _, t := range p.queue {
		if usedMin+t.MinWorkers <= p.size {
			usedMin += t.MinWorkers
			if !t.started {
				t.started = true
				t.startAt = now
			}
			p.active = append(p.active, t)
		} else {
			stillQueued = append(stillQueued, t)
		}
	}
	p.queue = stillQueued

	// Equipartition: minimums first, then round-robin surplus up to max.
	surplus := p.size
	for _, t := range p.active {
		t.workers = t.MinWorkers
		surplus -= t.MinWorkers
	}
	for surplus > 0 {
		granted := false
		for _, t := range p.active {
			if surplus == 0 {
				break
			}
			if t.workers < t.MaxWorkers {
				t.workers++
				surplus--
				granted = true
			}
		}
		if !granted {
			break
		}
	}

	// Schedule the next completion.
	p.clock.Cancel(p.event)
	p.event = nil
	next := math.Inf(1)
	for _, t := range p.active {
		if t.workers > 0 {
			if eta := t.remaining / float64(t.workers); eta < next {
				next = eta
			}
		}
	}
	if !math.IsInf(next, 1) {
		// Seconds truncates to whole nanoseconds, so the completion event
		// can fire marginally before the task's floating-point remainder
		// reaches zero. A zero-delay reschedule would then re-fire at the
		// same instant without advancing time (progressLocked sees dt == 0)
		// and spin forever; clamp to one tick so every firing makes progress.
		delay := simclock.Seconds(next)
		if delay < time.Nanosecond {
			delay = time.Nanosecond
		}
		p.event = p.clock.Schedule(delay, "malleable-completion", p.reallocate)
	}
	p.mu.Unlock()
}

// Done reports whether every submitted task has finished.
func (p *MalleablePool) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doneN == len(p.all)
}

// PoolMetrics summarizes a malleable-pool run.
type PoolMetrics struct {
	Makespan       time.Duration
	Utilization    float64 // busy worker-seconds / (workers × makespan)
	MeanTurnaround time.Duration
	TasksCompleted int
}

// Metrics summarizes the run so far.
func (p *MalleablePool) Metrics() PoolMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := PoolMetrics{TasksCompleted: p.doneN}
	m.Makespan = p.lastEnd - p.createdAt
	if m.Makespan > 0 {
		m.Utilization = p.busyWorkerSeconds / (float64(p.size) * m.Makespan.Seconds())
	}
	var sum time.Duration
	n := 0
	for _, t := range p.all {
		if t.done {
			sum += t.endAt - t.arrived
			n++
		}
	}
	if n > 0 {
		m.MeanTurnaround = sum / time.Duration(n)
	}
	return m
}
