package experiments

import (
	"fmt"
	"time"

	"hpcqc/internal/sched"
)

// HintsRow compares one within-class ordering policy on the same backlog.
type HintsRow struct {
	Setup        string
	DevMeanWait  time.Duration
	DevMaxWait   time.Duration
	ProdWait     time.Duration
	Makespan     time.Duration
	OrderInverts int
}

// RunDurationHints executes ablation A8 (paper §3.5 and §4 future work): the
// submitter — or failing that, the daemon's own estimate from the validated
// program — declares the expected QPU hold time, and the second-level
// scheduler orders jobs within a class shortest-expected-first. On a backlog
// of unequal dev jobs this reduces the mean wait versus arrival-order FIFO
// without changing the total work, and a production arrival still outranks
// every dev job regardless of its duration hint.
func RunDurationHints(seed int64) ([]HintsRow, *Table, error) {
	// A descending backlog is FIFO's worst case: everyone queues behind
	// the big jobs that happened to arrive first. At the default 1 Hz a job
	// of n shots holds the QPU for n seconds.
	devShots := []time.Duration{10, 300, 150, 80, 40, 20, 10, 5}
	const prodShots = 30
	prodArrival := 100 * time.Second

	run := func(setup, scheduler string) (*HintsRow, error) {
		// Submissions land in order with 1 s spacing so FIFO's arrival
		// order is well defined.
		var devs []*qpuJob
		for i, shots := range devShots {
			devs = append(devs, &qpuJob{user: "dev-user", class: sched.ClassDev, at: time.Duration(i) * time.Second,
				segs: []segment{{true, shots * time.Second}}})
		}
		prod := &qpuJob{user: "dev-user", class: sched.ClassProduction, at: prodArrival,
			segs: []segment{{true, prodShots * time.Second}}}
		res, err := runQPU(qpuConfig{scheduler: scheduler, preempt: true, seed: seed}, append(devs, prod))
		if err != nil {
			return nil, err
		}
		// Waits run to the start of the run that completed, as the job's
		// status reports it.
		row := &HintsRow{Setup: setup, ProdWait: prod.last - prod.submit, Makespan: res.makespan}
		for i, j := range devs {
			w := j.last - j.submit
			row.DevMeanWait += w
			row.DevMaxWait = max(row.DevMaxWait, w)
			// Count inversions of arrival order — zero under FIFO,
			// positive when duration hints reorder the backlog.
			if i > 0 && j.last < devs[i-1].last {
				row.OrderInverts++
			}
		}
		row.DevMeanWait /= time.Duration(len(devs))
		return row, nil
	}

	fifo, err := run("fifo-within-class", "fifo")
	if err != nil {
		return nil, nil, err
	}
	sjf, err := run("shortest-expected-first", "shortest-first")
	if err != nil {
		return nil, nil, err
	}
	rows := []HintsRow{*fifo, *sjf}
	table := &Table{
		Title:   "A8: expected-QPU-duration hints (§3.5) — within-class order on an unequal dev backlog",
		Columns: []string{"setup", "dev_mean_wait", "dev_max_wait", "prod_wait", "makespan", "reorderings"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Setup, fmtDur(r.DevMeanWait), fmtDur(r.DevMaxWait),
			fmtDur(r.ProdWait), fmtDur(r.Makespan), fmt.Sprintf("%d", r.OrderInverts),
		})
	}
	return rows, table, nil
}
