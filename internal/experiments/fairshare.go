package experiments

import (
	"fmt"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
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
		clk := simclock.New()
		dev, err := device.New(device.Config{Clock: clk, Seed: seed, DriftInterval: time.Hour})
		if err != nil {
			return nil, err
		}
		order, err := daemon.NewOrder(scheduler)
		if err != nil {
			return nil, err
		}
		dmn, err := daemon.NewDaemon(daemon.Config{
			Devices: []*device.Device{dev}, Clock: clk, AdminToken: "admin",
			EnablePreemption: true, Order: order, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		hog, err := dmn.OpenSession("hog")
		if err != nil {
			return nil, err
		}
		casual, err := dmn.OpenSession("casual")
		if err != nil {
			return nil, err
		}

		submit := func(sess string, shots int, ids *[]string) func() {
			return func() {
				raw, err := figure2Program(shots).MarshalJSON()
				if err != nil {
					return
				}
				j, err := dmn.Submit(sess, daemon.SubmitRequest{Program: raw, Class: sched.ClassDev})
				if err == nil {
					*ids = append(*ids, j.ID)
				}
			}
		}
		var hogIDs, casualIDs []string
		// The flood lands first…
		for i := 0; i < hogJobs; i++ {
			clk.Schedule(time.Duration(i)*time.Second, "hog", submit(hog.Token, hogShots, &hogIDs))
		}
		// …the casual user arrives moments later.
		for i := 0; i < casualJobs; i++ {
			clk.Schedule(time.Duration(20+i)*time.Second, "casual", submit(casual.Token, casShots, &casualIDs))
		}
		clk.RunUntil(6 * time.Hour)

		mean := func(token string, ids []string) (time.Duration, time.Duration, error) {
			var sum, last time.Duration
			for _, id := range ids {
				j, err := dmn.JobStatus(token, id)
				if err != nil {
					return 0, 0, err
				}
				if j.State != daemon.JobCompleted {
					return 0, 0, fmt.Errorf("experiments: job %s ended %s", id, j.State)
				}
				sum += j.StartedAt - j.SubmittedAt
				if j.FinishedAt > last {
					last = j.FinishedAt
				}
			}
			return sum / time.Duration(len(ids)), last, nil
		}
		hogWait, hogEnd, err := mean(hog.Token, hogIDs)
		if err != nil {
			return nil, err
		}
		casWait, casEnd, err := mean(casual.Token, casualIDs)
		if err != nil {
			return nil, err
		}
		row := &FairShareRow{
			Setup:          setup,
			HogMeanWait:    hogWait,
			CasualMeanWait: casWait,
			Makespan:       maxDur(hogEnd, casEnd),
		}
		if hogWait > 0 {
			row.WaitRatio = float64(casWait) / float64(hogWait)
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

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
