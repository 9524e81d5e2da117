package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

// patternCJob alternates 10s quantum / 10s classical, 3 rounds.
func patternCJob(class sched.Class) *qpuJob {
	j := &qpuJob{class: class}
	for i := 0; i < 3; i++ {
		j.segs = append(j.segs, segment{true, 10 * time.Second}, segment{false, 10 * time.Second})
	}
	return j
}

// quantumJob is one quantum segment of d arriving at at.
func quantumJob(class sched.Class, at, d time.Duration) *qpuJob {
	return &qpuJob{class: class, at: at, segs: []segment{{true, d}}}
}

func mustRun(t *testing.T, pol Policy, jobs ...*qpuJob) *qpuRun {
	t.Helper()
	run, err := runQPU(pol.config(1, 1), jobs)
	if err != nil {
		t.Fatalf("%s: %v", pol, err)
	}
	return run
}

func TestSingleJobAllPoliciesSameMakespan(t *testing.T) {
	// One job alone: every policy yields the same makespan (sum of
	// segments) and the same QPU busy time (sum of quantum segments).
	for _, pol := range []Policy{PolicyExclusiveFIFO, PolicyPriorityExclusive, PolicyInterleave} {
		j := patternCJob(sched.ClassTest)
		run := mustRun(t, pol, j)
		if !j.done {
			t.Fatalf("%s: not done", pol)
		}
		if run.makespan != 60*time.Second {
			t.Fatalf("%s: makespan = %s", pol, run.makespan)
		}
		if run.busy != 30*time.Second {
			t.Fatalf("%s: busy = %s", pol, run.busy)
		}
	}
}

func TestExclusiveHoldsQPUDuringClassical(t *testing.T) {
	run := mustRun(t, PolicyExclusiveFIFO, patternCJob(sched.ClassTest), patternCJob(sched.ClassTest))
	// Two 60s jobs serialized: makespan 120s, QPU busy 60s, held-idle 60s.
	if run.makespan != 120*time.Second {
		t.Fatalf("makespan = %s", run.makespan)
	}
	if idle := run.held - run.busy; idle != 60*time.Second {
		t.Fatalf("held idle = %s", idle)
	}
	if u := run.utilization(); u > 0.51 {
		t.Fatalf("exclusive utilization = %g", u)
	}
}

func TestInterleaveKillsIdleTime(t *testing.T) {
	a, b := patternCJob(sched.ClassTest), patternCJob(sched.ClassTest)
	run := mustRun(t, PolicyInterleave, a, b)
	// Interleaving: b's quantum segments fill a's classical gaps. Ideal
	// makespan 70s (last classical tail), QPU never held idle.
	if idle := run.held - run.busy; idle != 0 {
		t.Fatalf("interleave held idle = %s", idle)
	}
	if run.makespan > 80*time.Second {
		t.Fatalf("interleave makespan = %s", run.makespan)
	}
	if u := run.utilization(); u < 0.7 {
		t.Fatalf("interleave utilization = %g", u)
	}
	if !a.done || !b.done {
		t.Fatal("a job did not complete")
	}
}

func TestInterleaveBeatsExclusiveOnMixedLoad(t *testing.T) {
	// Table 1's central claim: with a mix of pattern A and B jobs, the
	// hint-aware interleave policy yields higher QPU utilization and a
	// shorter makespan than the hint-blind exclusive baseline.
	build := func() []*qpuJob {
		var jobs []*qpuJob
		// Pattern A: long quantum, tiny classical post-processing.
		for i := 0; i < 2; i++ {
			jobs = append(jobs, &qpuJob{class: sched.ClassTest, segs: []segment{
				{true, 40 * time.Second}, {false, 5 * time.Second},
			}})
		}
		// Pattern B: sparse quantum bursts inside heavy classical work.
		for i := 0; i < 2; i++ {
			jobs = append(jobs, &qpuJob{class: sched.ClassTest, segs: []segment{
				{true, 5 * time.Second}, {false, 60 * time.Second},
				{true, 5 * time.Second}, {false, 60 * time.Second},
			}})
		}
		return jobs
	}
	excl := mustRun(t, PolicyExclusiveFIFO, build()...)
	inter := mustRun(t, PolicyInterleave, build()...)
	if inter.makespan >= excl.makespan {
		t.Fatalf("interleave makespan %s !< exclusive %s", inter.makespan, excl.makespan)
	}
	if inter.utilization() <= excl.utilization() {
		t.Fatalf("interleave util %g !> exclusive %g", inter.utilization(), excl.utilization())
	}
	if inter.held-inter.busy >= excl.held-excl.busy {
		t.Fatalf("interleave idle %s !< exclusive %s", inter.held-inter.busy, excl.held-excl.busy)
	}
}

func TestProductionPreemptsDevSegment(t *testing.T) {
	dev := quantumJob(sched.ClassDev, 0, 100*time.Second)
	prod := quantumJob(sched.ClassProduction, 10*time.Second, 20*time.Second)
	run := mustRun(t, PolicyInterleave, dev, prod)
	if run.preempts != 1 {
		t.Fatalf("preemptions = %d", run.preempts)
	}
	if w := prod.start - prod.submit; w != 0 {
		t.Fatalf("production waited %s behind a dev job", w)
	}
	// Dev re-ran its 100s segment after the 20s production job:
	// turnaround = 10 (ran) + 20 (prod) + 100 (restart) = 130s.
	if turn := dev.end - dev.submit; turn != 130*time.Second {
		t.Fatalf("dev turnaround = %s", turn)
	}
	if dev.start != 0 || dev.last != 30*time.Second {
		t.Fatalf("dev started at %s, restarted at %s", dev.start, dev.last)
	}
	// The lost 10s of the preempted run were held, not busy.
	if idle := run.held - run.busy; idle != 10*time.Second {
		t.Fatalf("held idle = %s", idle)
	}
}

func TestFIFOBaselineDoesNotPreempt(t *testing.T) {
	prod := quantumJob(sched.ClassProduction, time.Second, 10*time.Second)
	run := mustRun(t, PolicyExclusiveFIFO, quantumJob(sched.ClassDev, 0, 100*time.Second), prod)
	if run.preempts != 0 {
		t.Fatalf("FIFO preempted: %d", run.preempts)
	}
	// Production had to wait for the dev job: 99s.
	if w := prod.start - prod.submit; w != 99*time.Second {
		t.Fatalf("production wait = %s", w)
	}
}

func TestPriorityExclusiveOrdersQueue(t *testing.T) {
	// Occupy with a production job so nothing is preempted, then queue
	// dev before prod; prod must still run first.
	dev := quantumJob(sched.ClassDev, 0, 10*time.Second)
	prod := quantumJob(sched.ClassProduction, 0, 10*time.Second)
	mustRun(t, PolicyPriorityExclusive, quantumJob(sched.ClassProduction, 0, 10*time.Second), dev, prod)
	if prodWait, devWait := prod.start-prod.submit, dev.start-dev.submit; prodWait >= devWait {
		t.Fatalf("prod wait %s !< dev wait %s", prodWait, devWait)
	}
}

func TestWaitByClassMetrics(t *testing.T) {
	prod := quantumJob(sched.ClassProduction, 0, 30*time.Second)
	dev := quantumJob(sched.ClassDev, 0, 10*time.Second)
	mustRun(t, PolicyPriorityExclusive, prod, dev)
	if w := prod.start - prod.submit; w != 0 {
		t.Fatalf("prod wait = %s", w)
	}
	if w := dev.start - dev.submit; w != 30*time.Second {
		t.Fatalf("dev wait = %s", w)
	}
}

// randomJobs builds n test-class jobs of up to maxSegs random segments of
// 1..maxDur whole seconds, quantum or classical at random — so leading
// classical and back-to-back quantum segments occur.
func randomJobs(rng *rand.Rand, n, maxSegs, maxDur int) []*qpuJob {
	var jobs []*qpuJob
	for i := 0; i < n; i++ {
		j := &qpuJob{class: sched.ClassTest}
		segs := rng.Intn(maxSegs) + 1
		for s := 0; s < segs; s++ {
			j.segs = append(j.segs, segment{rng.Intn(2) == 0, time.Duration(rng.Intn(maxDur)+1) * time.Second})
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// TestQPUConservationProperty: for any random batch under any policy, every
// job completes, QPU busy time equals the batch's total quantum time, the
// QPU is held at least that long (exactly that long under interleave, which
// holds it only for quantum segments) and utilization never exceeds 1.
func TestQPUConservationProperty(t *testing.T) {
	f := func(seed int64, policyPick uint8, nJobs uint8) bool {
		policy := []Policy{PolicyExclusiveFIFO, PolicyPriorityExclusive, PolicyInterleave}[int(policyPick)%3]
		jobs := randomJobs(rand.New(rand.NewSource(seed)), int(nJobs)%6+1, 4, 50)
		var totalQuantum time.Duration
		for _, j := range jobs {
			for _, s := range j.segs {
				if s.quantum {
					totalQuantum += s.dur
				}
			}
		}
		run, err := runQPU(policy.config(1, seed), jobs)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, j := range jobs {
			if !j.done {
				return false
			}
		}
		if run.busy != totalQuantum || run.held < run.busy {
			return false
		}
		if policy == PolicyInterleave && run.held != run.busy {
			return false
		}
		u := run.utilization()
		return u >= 0 && u <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleaveNeverWorseProperty: on any batch, interleave's makespan is
// never worse than the exclusive baseline's (it only releases the QPU
// earlier; both use one QPU and unbounded classical compute).
func TestInterleaveNeverWorseProperty(t *testing.T) {
	var leading, backToBack int
	f := func(seed int64, nJobs uint8) bool {
		n := int(nJobs)%5 + 2
		build := func() []*qpuJob { return randomJobs(rand.New(rand.NewSource(seed)), n, 3, 40) }
		for _, j := range build() {
			if !j.segs[0].quantum {
				leading++
			}
			for i := 1; i < len(j.segs); i++ {
				if j.segs[i-1].quantum && j.segs[i].quantum {
					backToBack++
				}
			}
		}
		excl, err := runQPU(PolicyExclusiveFIFO.config(1, seed), build())
		if err != nil {
			t.Log(err)
			return false
		}
		inter, err := runQPU(PolicyInterleave.config(1, seed), build())
		if err != nil {
			t.Log(err)
			return false
		}
		return inter.makespan <= excl.makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if leading == 0 || backToBack == 0 {
		t.Fatalf("batches lacked a leading classical (%d) or back-to-back quantum (%d) segment", leading, backToBack)
	}
}

// quantumTime and classicalTime sum a job's segments of each kind.
func quantumTime(j *qpuJob) (q, c time.Duration) {
	for _, s := range j.segs {
		if s.quantum {
			q += s.dur
		} else {
			c += s.dur
		}
	}
	return q, c
}

func TestGeneratorJobShapes(t *testing.T) {
	a := table1Batch(1, workload.Mix{QCHeavy: 1})[0]
	if q, c := quantumTime(a); q <= c {
		t.Fatalf("QC-heavy inverted: q=%s c=%s", q, c)
	}
	b := table1Batch(1, workload.Mix{CCHeavy: 1})[0]
	if q, c := quantumTime(b); c <= q {
		t.Fatalf("CC-heavy inverted: q=%s c=%s", q, c)
	}
	q, c := quantumTime(table1Batch(1, workload.Mix{Balanced: 1})[0])
	if ratio := float64(q) / float64(c); ratio < 0.5 || ratio > 2 {
		t.Fatalf("balanced ratio = %g", ratio)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mix := workload.Mix{QCHeavy: 2, CCHeavy: 2, Balanced: 2}
	a, b := table1Batch(7, mix), table1Batch(7, mix)
	for i := range a {
		if len(a[i].segs) != len(b[i].segs) {
			t.Fatal("same seed produced different jobs")
		}
		for s := range a[i].segs {
			if a[i].segs[s] != b[i].segs[s] {
				t.Fatal("same seed produced different jobs")
			}
		}
	}
}

func TestBatchComposition(t *testing.T) {
	jobs := table1Batch(3, workload.Mix{QCHeavy: 2, CCHeavy: 3, Balanced: 1})
	if len(jobs) != 6 {
		t.Fatalf("batch size = %d", len(jobs))
	}
	// Patterns differ in their quantum segment count: QC-heavy 1,
	// CC-heavy 3, balanced 4 — each followed by a classical segment.
	bySegments := map[int]int{}
	for _, j := range jobs {
		if j.class != sched.ClassTest {
			t.Fatalf("class = %s", j.class)
		}
		bySegments[len(j.segs)/2]++
	}
	if bySegments[1] != 2 || bySegments[3] != 3 || bySegments[4] != 1 {
		t.Fatalf("composition by quantum segments = %v", bySegments)
	}
}

func TestJitterBounds(t *testing.T) {
	spec := workload.DefaultPatternSpecs()[sched.PatternBalanced]
	for _, j := range table1Batch(11, workload.Mix{Balanced: 50}) {
		for _, s := range j.segs {
			nominal := spec.ClassicalSeg
			if s.quantum {
				nominal = spec.QuantumSeg
			}
			if s.dur < time.Second || float64(s.dur) < 0.8*float64(nominal) || float64(s.dur) > 1.2*float64(nominal) {
				t.Fatalf("segment %s outside ±20%% of %s", s.dur, nominal)
			}
		}
	}
}
