package experiments

import (
	"fmt"
	"time"

	"hpcqc/internal/sched"
)

// FairShareRow compares one within-class ordering on the two-user scenario.
type FairShareRow struct {
	Setup          string
	HogMeanWait    time.Duration
	CasualMeanWait time.Duration
	// WaitRatio is casual/hog mean wait — 1.0 is perfectly even service.
	WaitRatio float64
	Makespan  time.Duration
}

// RunFairShare executes ablation A9 (paper §4, "fairer resource sharing"):
// one user floods the dev queue while a second user trickles in single jobs.
// Plain FIFO serves the flood in arrival order, so the casual user queues
// behind all of it; least-served-user-first ordering interleaves the casual
// user's jobs after each completion, evening out the wait — without touching
// class priorities.
func RunFairShare(seed int64) ([]FairShareRow, *Table, error) {
	const (
		hogJobs    = 8
		casualJobs = 3
		hogShots   = 60
		casShots   = 60
	)

	run := func(setup, scheduler string) (*FairShareRow, error) {
		// At the default 1 Hz a job of n shots holds the QPU for n seconds.
		var jobs []*qpuJob
		// The flood lands first…
		for i := 0; i < hogJobs; i++ {
			jobs = append(jobs, &qpuJob{user: "hog", class: sched.ClassDev, at: time.Duration(i) * time.Second,
				segs: []segment{{true, hogShots * time.Second}}})
		}
		// …the casual user arrives moments later.
		for i := 0; i < casualJobs; i++ {
			jobs = append(jobs, &qpuJob{user: "casual", class: sched.ClassDev, at: time.Duration(20+i) * time.Second,
				segs: []segment{{true, casShots * time.Second}}})
		}
		res, err := runQPU(qpuConfig{scheduler: scheduler, preempt: true, seed: seed}, jobs)
		if err != nil {
			return nil, err
		}
		mean := func(jobs []*qpuJob) time.Duration {
			var sum time.Duration
			for _, j := range jobs {
				sum += j.last - j.submit
			}
			return sum / time.Duration(len(jobs))
		}
		row := &FairShareRow{
			Setup:          setup,
			HogMeanWait:    mean(jobs[:hogJobs]),
			CasualMeanWait: mean(jobs[hogJobs:]),
			Makespan:       res.makespan,
		}
		if row.HogMeanWait > 0 {
			row.WaitRatio = float64(row.CasualMeanWait) / float64(row.HogMeanWait)
		}
		return row, nil
	}

	fifo, err := run("fifo-within-class", "fifo")
	if err != nil {
		return nil, nil, err
	}
	fair, err := run("least-served-first", "fair-share")
	if err != nil {
		return nil, nil, err
	}
	rows := []FairShareRow{*fifo, *fair}
	table := &Table{
		Title:   "A9: fair share (§4) — flooding user vs casual user in the same dev class",
		Columns: []string{"setup", "hog_mean_wait", "casual_mean_wait", "casual/hog", "makespan"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Setup, fmtDur(r.HogMeanWait), fmtDur(r.CasualMeanWait),
			fmt.Sprintf("%.2f", r.WaitRatio), fmtDur(r.Makespan),
		})
	}
	return rows, table, nil
}
