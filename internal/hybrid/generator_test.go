package hybrid

import (
	"testing"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/workload"
)

func TestGeneratorJobShapes(t *testing.T) {
	g := NewGenerator(1)
	a, err := g.Job(sched.PatternQCHeavy, sched.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalQuantum() <= a.TotalClassical() {
		t.Fatalf("QC-heavy inverted: q=%s c=%s", a.TotalQuantum(), a.TotalClassical())
	}
	b, _ := g.Job(sched.PatternCCHeavy, sched.ClassTest)
	if b.TotalClassical() <= b.TotalQuantum() {
		t.Fatalf("CC-heavy inverted: q=%s c=%s", b.TotalQuantum(), b.TotalClassical())
	}
	c, _ := g.Job(sched.PatternBalanced, sched.ClassTest)
	ratio := float64(c.TotalQuantum()) / float64(c.TotalClassical())
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("balanced ratio = %g", ratio)
	}
	if _, err := g.Job(sched.Pattern("alien"), sched.ClassDev); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, _ := NewGenerator(7).Job(sched.PatternBalanced, sched.ClassDev)
	b, _ := NewGenerator(7).Job(sched.PatternBalanced, sched.ClassDev)
	if a.TotalQuantum() != b.TotalQuantum() || a.TotalClassical() != b.TotalClassical() {
		t.Fatal("same seed produced different jobs")
	}
}

func TestBatchComposition(t *testing.T) {
	g := NewGenerator(3)
	jobs, err := g.Batch(workload.Mix{QCHeavy: 2, CCHeavy: 3, Balanced: 1}, sched.ClassTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("batch size = %d", len(jobs))
	}
	byPattern := map[sched.Pattern]int{}
	ids := map[string]bool{}
	for _, j := range jobs {
		byPattern[j.Pattern]++
		if ids[j.ID] {
			t.Fatalf("duplicate ID %s", j.ID)
		}
		ids[j.ID] = true
	}
	if byPattern[sched.PatternQCHeavy] != 2 || byPattern[sched.PatternCCHeavy] != 3 || byPattern[sched.PatternBalanced] != 1 {
		t.Fatalf("composition = %v", byPattern)
	}
	if _, err := g.Batch(workload.Mix{}, sched.ClassDev); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestBatchRunsOnOrchestrator(t *testing.T) {
	g := NewGenerator(5)
	jobs, _ := g.Batch(workload.Mix{QCHeavy: 2, CCHeavy: 2, Balanced: 2}, sched.ClassTest)
	clk := simclock.New()
	o, _ := NewOrchestrator(clk, PolicyInterleave)
	for _, j := range jobs {
		if err := o.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	clk.Run(0)
	if !o.Done() {
		t.Fatal("batch did not finish")
	}
	m := o.Metrics()
	if m.JobsCompleted != 6 || m.Makespan <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewGenerator(11)
	g.Jitter = 0.5
	for i := 0; i < 50; i++ {
		j, _ := g.Job(sched.PatternBalanced, sched.ClassDev)
		for _, s := range j.Segments {
			if s.Duration < time.Second {
				t.Fatalf("segment below floor: %s", s.Duration)
			}
			if s.Duration > 2*60*time.Second {
				t.Fatalf("segment above 1.5x nominal: %s", s.Duration)
			}
		}
	}
}
