package hybrid

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hpcqc/internal/simclock"
)

func TestMalleablePoolValidation(t *testing.T) {
	clk := simclock.New()
	if _, err := NewMalleablePool(nil, 4); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewMalleablePool(clk, 0); err == nil {
		t.Fatal("0 workers accepted")
	}
	p, _ := NewMalleablePool(clk, 4)
	bad := []*MalleableTask{
		{ID: "", Work: 1, MinWorkers: 1, MaxWorkers: 1},
		{ID: "a", Work: 0, MinWorkers: 1, MaxWorkers: 1},
		{ID: "a", Work: 1, MinWorkers: 0, MaxWorkers: 1},
		{ID: "a", Work: 1, MinWorkers: 3, MaxWorkers: 2},
		{ID: "a", Work: 1, MinWorkers: 9, MaxWorkers: 9},
	}
	for i, task := range bad {
		if err := p.Submit(task); err == nil {
			t.Errorf("bad task %d accepted", i)
		}
	}
	ok := &MalleableTask{ID: "a", Work: 1, MinWorkers: 1, MaxWorkers: 1}
	if err := p.Submit(ok); err != nil {
		t.Fatal(err)
	}
	dup := &MalleableTask{ID: "a", Work: 1, MinWorkers: 1, MaxWorkers: 1}
	if err := p.Submit(dup); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestSingleMalleableTaskUsesWholePool(t *testing.T) {
	clk := simclock.New()
	p, _ := NewMalleablePool(clk, 8)
	// 80 worker-seconds on 8 workers → 10 s.
	p.Submit(&MalleableTask{ID: "t", Work: 80, MinWorkers: 1, MaxWorkers: 8})
	if got := p.Workers("t"); got != 8 {
		t.Fatalf("allocation = %d, want 8", got)
	}
	clk.Run(0)
	if !p.Done() {
		t.Fatal("not done")
	}
	m := p.Metrics()
	if m.Makespan != 10*time.Second {
		t.Fatalf("makespan = %s", m.Makespan)
	}
	if math.Abs(m.Utilization-1) > 1e-9 {
		t.Fatalf("utilization = %g", m.Utilization)
	}
}

func TestRigidTaskCannotGrow(t *testing.T) {
	clk := simclock.New()
	p, _ := NewMalleablePool(clk, 8)
	// Rigid 4-worker task alone on an 8-worker pool: half idle.
	p.Submit(&MalleableTask{ID: "t", Work: 80, MinWorkers: 4, MaxWorkers: 4})
	if got := p.Workers("t"); got != 4 {
		t.Fatalf("allocation = %d, want 4", got)
	}
	clk.Run(0)
	m := p.Metrics()
	if m.Makespan != 20*time.Second {
		t.Fatalf("makespan = %s", m.Makespan)
	}
	if m.Utilization > 0.51 {
		t.Fatalf("utilization = %g, want ~0.5", m.Utilization)
	}
}

func TestMalleableShrinksOnArrival(t *testing.T) {
	clk := simclock.New()
	p, _ := NewMalleablePool(clk, 8)
	p.Submit(&MalleableTask{ID: "a", Work: 80, MinWorkers: 1, MaxWorkers: 8})
	if p.Workers("a") != 8 {
		t.Fatal("a did not expand")
	}
	clk.Advance(5 * time.Second) // a has consumed 40 of 80
	p.Submit(&MalleableTask{ID: "b", Work: 40, MinWorkers: 1, MaxWorkers: 8})
	// Equipartition: both get 4.
	if p.Workers("a") != 4 || p.Workers("b") != 4 {
		t.Fatalf("allocations: a=%d b=%d", p.Workers("a"), p.Workers("b"))
	}
	clk.Run(0)
	if !p.Done() {
		t.Fatal("not done")
	}
	// b finishes at 5 + 40/4 = 15s; a's remaining 40 runs at 4 then 8
	// workers: 10s shared + remaining 0 → also 15s. Total busy = 120 ws.
	m := p.Metrics()
	if m.Makespan != 15*time.Second {
		t.Fatalf("makespan = %s", m.Makespan)
	}
	if math.Abs(m.Utilization-1) > 1e-9 {
		t.Fatalf("utilization = %g", m.Utilization)
	}
}

func TestQueueWhenMinimumsDontFit(t *testing.T) {
	clk := simclock.New()
	p, _ := NewMalleablePool(clk, 4)
	p.Submit(&MalleableTask{ID: "a", Work: 40, MinWorkers: 3, MaxWorkers: 4})
	p.Submit(&MalleableTask{ID: "b", Work: 12, MinWorkers: 3, MaxWorkers: 4})
	// b's minimum (3) does not fit beside a's (3) on 4 workers: it queues.
	if p.Workers("b") != 0 {
		t.Fatalf("b allocated %d while queued", p.Workers("b"))
	}
	if p.Workers("a") != 4 {
		t.Fatalf("a = %d, want full pool", p.Workers("a"))
	}
	clk.Run(0)
	if !p.Done() {
		t.Fatal("not done")
	}
	// a: 40/4 = 10s; then b: 12/4 = 3s.
	if m := p.Metrics(); m.Makespan != 13*time.Second {
		t.Fatalf("makespan = %s", m.Makespan)
	}
}

func TestMalleableBeatsRigidOnSameTrace(t *testing.T) {
	// The §2.4 claim: malleability raises utilization and shortens the
	// makespan on an uneven trace.
	run := func(minW, maxW int) PoolMetrics {
		clk := simclock.New()
		p, _ := NewMalleablePool(clk, 16)
		for i := 0; i < 6; i++ {
			p.Submit(&MalleableTask{
				ID:   fmt.Sprintf("t%d", i),
				Work: 160, MinWorkers: minW, MaxWorkers: maxW,
			})
		}
		clk.Run(0)
		if !p.Done() {
			t.Fatal("not done")
		}
		return p.Metrics()
	}
	rigid := run(4, 4)
	malleable := run(1, 16)
	if malleable.Makespan >= rigid.Makespan {
		t.Fatalf("malleable %s !< rigid %s", malleable.Makespan, rigid.Makespan)
	}
	if malleable.Utilization <= rigid.Utilization {
		t.Fatalf("malleable util %g !> rigid %g", malleable.Utilization, rigid.Utilization)
	}
	if math.Abs(malleable.Utilization-1) > 1e-9 {
		t.Fatalf("malleable utilization = %g, want 1 (divisible work)", malleable.Utilization)
	}
}

func TestWorkConservationProperty(t *testing.T) {
	// Whatever the bounds, total busy worker-seconds equals total work.
	for seed := 0; seed < 10; seed++ {
		clk := simclock.New()
		p, _ := NewMalleablePool(clk, 8)
		totalWork := 0.0
		for i := 0; i < 5; i++ {
			w := float64(10 + (seed*7+i*13)%50)
			minW := 1 + (seed+i)%3
			maxW := minW + (i*seed)%5
			p.Submit(&MalleableTask{ID: fmt.Sprintf("t%d", i), Work: w, MinWorkers: minW, MaxWorkers: maxW})
			totalWork += w
		}
		clk.Run(0)
		if !p.Done() {
			t.Fatalf("seed %d: not done", seed)
		}
		m := p.Metrics()
		busy := m.Utilization * 8 * m.Makespan.Seconds()
		if math.Abs(busy-totalWork) > 1e-6*totalWork+1e-6 {
			t.Fatalf("seed %d: busy %g != work %g", seed, busy, totalWork)
		}
	}
}

func TestFractionalEtaTerminates(t *testing.T) {
	// Regression: completion etas that are not whole nanoseconds (e.g.
	// 10 worker-seconds on 3 workers) truncate when converted to clock
	// ticks, so the completion event fires marginally early and the task
	// keeps a sub-nanosecond remainder. The pool must converge — one tick
	// of progress per firing at worst — rather than rescheduling a
	// zero-delay event at the same instant forever.
	for _, workers := range []int{3, 7, 13} {
		clk := simclock.New()
		p, _ := NewMalleablePool(clk, workers)
		for i := 0; i < 4; i++ {
			p.Submit(&MalleableTask{
				ID:         fmt.Sprintf("t%d", i),
				Work:       10.0 / float64(1+i), // deliberately non-representable etas
				MinWorkers: 1, MaxWorkers: workers,
			})
		}
		// A converging run needs a handful of events; give it a bounded
		// budget far above that so a regression fails fast instead of
		// hanging the suite.
		fired := clk.Run(10000)
		if !p.Done() {
			t.Fatalf("pool(%d workers) not done after %d events — zero-delay event loop?", workers, fired)
		}
	}
}

func TestUnknownTaskWorkers(t *testing.T) {
	clk := simclock.New()
	p, _ := NewMalleablePool(clk, 2)
	if p.Workers("ghost") != 0 {
		t.Fatal("ghost task has workers")
	}
}
