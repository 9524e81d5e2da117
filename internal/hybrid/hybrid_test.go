package hybrid

import (
	"fmt"
	"testing"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// patternCJob alternates 10s quantum / 10s classical, 3 rounds.
func patternCJob(id string, class sched.Class) *HybridJob {
	j := &HybridJob{ID: id, Class: class, Pattern: sched.PatternBalanced}
	for i := 0; i < 3; i++ {
		j.Segments = append(j.Segments,
			Segment{Quantum: true, Duration: 10 * time.Second},
			Segment{Quantum: false, Duration: 10 * time.Second},
		)
	}
	return j
}

func TestOrchestratorValidation(t *testing.T) {
	if _, err := NewOrchestrator(nil, PolicyInterleave); err == nil {
		t.Fatal("nil clock accepted")
	}
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyInterleave)
	if err := o.Submit(&HybridJob{}); err == nil {
		t.Fatal("no-ID job accepted")
	}
	if err := o.Submit(&HybridJob{ID: "a"}); err == nil {
		t.Fatal("no-segment job accepted")
	}
	if err := o.Submit(&HybridJob{ID: "a", Segments: []Segment{{Quantum: true}}}); err == nil {
		t.Fatal("zero-duration segment accepted")
	}
	ok := &HybridJob{ID: "a", Segments: []Segment{{Quantum: true, Duration: time.Second}}}
	if err := o.Submit(ok); err != nil {
		t.Fatal(err)
	}
	dup := &HybridJob{ID: "a", Segments: []Segment{{Quantum: true, Duration: time.Second}}}
	if err := o.Submit(dup); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestSingleJobAllPoliciesSameMakespan(t *testing.T) {
	// One job alone: every policy yields the same makespan (sum of
	// segments) and the same QPU busy time (sum of quantum segments).
	for _, pol := range []Policy{PolicyExclusiveFIFO, PolicyPriorityExclusive, PolicyInterleave} {
		clk := simclock.New()
		o, _ := NewOrchestrator(clk, pol)
		if err := o.Submit(patternCJob("j", sched.ClassTest)); err != nil {
			t.Fatal(err)
		}
		clk.Run(0)
		if !o.Done() {
			t.Fatalf("%s: not done", pol)
		}
		m := o.Metrics()
		if m.Makespan != 60*time.Second {
			t.Fatalf("%s: makespan = %s", pol, m.Makespan)
		}
		if m.QPUBusy != 30*time.Second {
			t.Fatalf("%s: busy = %s", pol, m.QPUBusy)
		}
	}
}

func TestExclusiveHoldsQPUDuringClassical(t *testing.T) {
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyExclusiveFIFO)
	o.Submit(patternCJob("a", sched.ClassTest))
	o.Submit(patternCJob("b", sched.ClassTest))
	clk.Run(0)
	m := o.Metrics()
	// Two 60s jobs serialized: makespan 120s, QPU busy 60s, held-idle 60s.
	if m.Makespan != 120*time.Second {
		t.Fatalf("makespan = %s", m.Makespan)
	}
	if m.QPUHeldIdle != 60*time.Second {
		t.Fatalf("held idle = %s", m.QPUHeldIdle)
	}
	if m.QPUUtilization > 0.51 {
		t.Fatalf("exclusive utilization = %g", m.QPUUtilization)
	}
}

func TestInterleaveKillsIdleTime(t *testing.T) {
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyInterleave)
	o.Submit(patternCJob("a", sched.ClassTest))
	o.Submit(patternCJob("b", sched.ClassTest))
	clk.Run(0)
	m := o.Metrics()
	// Interleaving: b's quantum segments fill a's classical gaps. Ideal
	// makespan 70s (last classical tail), QPU never held idle.
	if m.QPUHeldIdle != 0 {
		t.Fatalf("interleave held idle = %s", m.QPUHeldIdle)
	}
	if m.Makespan > 80*time.Second {
		t.Fatalf("interleave makespan = %s", m.Makespan)
	}
	if m.QPUUtilization < 0.7 {
		t.Fatalf("interleave utilization = %g", m.QPUUtilization)
	}
	if m.JobsCompleted != 2 {
		t.Fatalf("completed = %d", m.JobsCompleted)
	}
}

func TestInterleaveBeatsExclusiveOnMixedLoad(t *testing.T) {
	// Table 1's central claim: with a mix of pattern A and B jobs, the
	// hint-aware interleave policy yields higher QPU utilization and a
	// shorter makespan than the hint-blind exclusive baseline.
	build := func() []*HybridJob {
		var jobs []*HybridJob
		// sched.Pattern A: long quantum, tiny classical post-processing.
		for i := 0; i < 2; i++ {
			jobs = append(jobs, &HybridJob{
				ID: fmt.Sprintf("qc%d", i), Class: sched.ClassTest, Pattern: sched.PatternQCHeavy,
				Segments: []Segment{
					{Quantum: true, Duration: 40 * time.Second},
					{Quantum: false, Duration: 5 * time.Second},
				},
			})
		}
		// sched.Pattern B: sparse quantum bursts inside heavy classical work.
		for i := 0; i < 2; i++ {
			jobs = append(jobs, &HybridJob{
				ID: fmt.Sprintf("cc%d", i), Class: sched.ClassTest, Pattern: sched.PatternCCHeavy,
				Segments: []Segment{
					{Quantum: true, Duration: 5 * time.Second},
					{Quantum: false, Duration: 60 * time.Second},
					{Quantum: true, Duration: 5 * time.Second},
					{Quantum: false, Duration: 60 * time.Second},
				},
			})
		}
		return jobs
	}
	run := func(pol Policy) Metrics {
		clk := simclock.New()
		o, _ := NewOrchestrator(clk, pol)
		for _, j := range build() {
			if err := o.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		clk.Run(0)
		if !o.Done() {
			t.Fatalf("%s: not done", pol)
		}
		return o.Metrics()
	}
	excl := run(PolicyExclusiveFIFO)
	inter := run(PolicyInterleave)
	if inter.Makespan >= excl.Makespan {
		t.Fatalf("interleave makespan %s !< exclusive %s", inter.Makespan, excl.Makespan)
	}
	if inter.QPUUtilization <= excl.QPUUtilization {
		t.Fatalf("interleave util %g !> exclusive %g", inter.QPUUtilization, excl.QPUUtilization)
	}
	if inter.QPUHeldIdle >= excl.QPUHeldIdle {
		t.Fatalf("interleave idle %s !< exclusive %s", inter.QPUHeldIdle, excl.QPUHeldIdle)
	}
}

func TestProductionPreemptsDevSegment(t *testing.T) {
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyInterleave)
	dev := &HybridJob{ID: "dev", Class: sched.ClassDev, Segments: []Segment{
		{Quantum: true, Duration: 100 * time.Second},
	}}
	o.Submit(dev)
	clk.Advance(10 * time.Second)
	prod := &HybridJob{ID: "prod", Class: sched.ClassProduction, Segments: []Segment{
		{Quantum: true, Duration: 20 * time.Second},
	}}
	o.Submit(prod)
	clk.Run(0)
	m := o.Metrics()
	if m.Preemptions != 1 {
		t.Fatalf("preemptions = %d", m.Preemptions)
	}
	rep := o.Report()
	var prodWait, devPre time.Duration
	var devPreempts int
	for _, r := range rep {
		if r.ID == "prod" {
			prodWait = r.Wait
		}
		if r.ID == "dev" {
			devPreempts = r.Preempts
			devPre = r.Turnaround
		}
	}
	if prodWait != 0 {
		t.Fatalf("production waited %s behind a dev job", prodWait)
	}
	if devPreempts != 1 {
		t.Fatalf("dev preempts = %d", devPreempts)
	}
	// Dev re-ran its 100s segment after the 20s production job:
	// turnaround = 10 (ran) + 20 (prod) + 100 (restart) = 130s.
	if devPre != 130*time.Second {
		t.Fatalf("dev turnaround = %s", devPre)
	}
	if !o.Done() {
		t.Fatal("not done")
	}
}

func TestFIFOBaselineDoesNotPreempt(t *testing.T) {
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyExclusiveFIFO)
	o.Submit(&HybridJob{ID: "dev", Class: sched.ClassDev, Segments: []Segment{
		{Quantum: true, Duration: 100 * time.Second},
	}})
	clk.Advance(time.Second)
	o.Submit(&HybridJob{ID: "prod", Class: sched.ClassProduction, Segments: []Segment{
		{Quantum: true, Duration: 10 * time.Second},
	}})
	clk.Run(0)
	m := o.Metrics()
	if m.Preemptions != 0 {
		t.Fatalf("FIFO preempted: %d", m.Preemptions)
	}
	// Production had to wait for the dev job: 99s.
	if m.MaxWaitProduction != 99*time.Second {
		t.Fatalf("production wait = %s", m.MaxWaitProduction)
	}
}

func TestPriorityExclusiveOrdersQueue(t *testing.T) {
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyPriorityExclusive)
	// Occupy with a production job so nothing is preempted, then queue
	// dev before prod; prod must still run first.
	o.Submit(&HybridJob{ID: "first", Class: sched.ClassProduction, Segments: []Segment{
		{Quantum: true, Duration: 10 * time.Second},
	}})
	o.Submit(&HybridJob{ID: "dev", Class: sched.ClassDev, Segments: []Segment{
		{Quantum: true, Duration: 10 * time.Second},
	}})
	o.Submit(&HybridJob{ID: "prod", Class: sched.ClassProduction, Segments: []Segment{
		{Quantum: true, Duration: 10 * time.Second},
	}})
	clk.Run(0)
	rep := o.Report()
	var devWait, prodWait time.Duration
	for _, r := range rep {
		switch r.ID {
		case "dev":
			devWait = r.Wait
		case "prod":
			prodWait = r.Wait
		}
	}
	if prodWait >= devWait {
		t.Fatalf("prod wait %s !< dev wait %s", prodWait, devWait)
	}
}

func TestWaitByClassMetrics(t *testing.T) {
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyPriorityExclusive)
	o.Submit(&HybridJob{ID: "a", Class: sched.ClassProduction, Segments: []Segment{
		{Quantum: true, Duration: 30 * time.Second},
	}})
	o.Submit(&HybridJob{ID: "b", Class: sched.ClassDev, Segments: []Segment{
		{Quantum: true, Duration: 10 * time.Second},
	}})
	clk.Run(0)
	m := o.Metrics()
	if m.WaitByClass[sched.ClassProduction] != 0 {
		t.Fatalf("prod wait = %s", m.WaitByClass[sched.ClassProduction])
	}
	if m.WaitByClass[sched.ClassDev] != 30*time.Second {
		t.Fatalf("dev wait = %s", m.WaitByClass[sched.ClassDev])
	}
}

func TestHybridJobTotals(t *testing.T) {
	j := patternCJob("x", sched.ClassDev)
	if j.TotalQuantum() != 30*time.Second || j.TotalClassical() != 30*time.Second {
		t.Fatalf("totals: %s %s", j.TotalQuantum(), j.TotalClassical())
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyExclusiveFIFO.String() == "" || PolicyInterleave.String() == "" || Policy(9).String() != "unknown" {
		t.Fatal("policy strings")
	}
}
