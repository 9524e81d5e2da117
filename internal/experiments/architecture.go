package experiments

import (
	"fmt"
	"math"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/slurm"
	"hpcqc/internal/telemetry"
)

// Figure2Row compares one scheduling setup on the multi-user scenario.
type Figure2Row struct {
	Setup        string
	ProdMeanWait time.Duration
	TestMeanWait time.Duration
	DevMeanWait  time.Duration
	QPUUtil      float64
	Preemptions  int
	Completed    int
}

// figure2Arrival is one synthetic user submission.
type figure2Arrival struct {
	at    time.Duration
	class sched.Class
	shots int
}

// figure2Workload builds the common arrival trace: a dev/test flood with
// production arrivals landing mid-flood — the multi-user contention the
// quantum access node exists to manage.
func figure2Workload() []figure2Arrival {
	var arr []figure2Arrival
	// Dev flood from t=0: 8 × 180-shot jobs.
	for i := 0; i < 8; i++ {
		arr = append(arr, figure2Arrival{at: time.Duration(i) * 20 * time.Second, class: sched.ClassDev, shots: 180})
	}
	// Test runs sprinkled in.
	for i := 0; i < 4; i++ {
		arr = append(arr, figure2Arrival{at: time.Duration(100+i*150) * time.Second, class: sched.ClassTest, shots: 90})
	}
	// Production arrivals at awkward times.
	for i := 0; i < 3; i++ {
		arr = append(arr, figure2Arrival{at: time.Duration(150+i*400) * time.Second, class: sched.ClassProduction, shots: 60})
	}
	return arr
}

func figure2Program(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

// RunFigure2 executes the Figure 2 reproduction: the full architecture —
// Slurm in front, the daemon on the quantum access node, the QPU behind it —
// against a direct-to-device baseline without the second scheduling level.
// Claims under test: the daemon keeps production wait times low by
// preempting lower classes, without starving overall QPU utilization, while
// Slurm-only FIFO makes production queue behind dev floods.
func RunFigure2(seed int64) ([]Figure2Row, *Table, error) {
	arrivals := figure2Workload()

	// --- Baseline: Slurm partitions feed the device FIFO directly. ---
	baseline, err := runFigure2Baseline(arrivals, seed)
	if err != nil {
		return nil, nil, err
	}
	// --- Full architecture: Slurm → daemon (second-level) → device. ---
	full, err := runFigure2Daemon(arrivals, seed)
	if err != nil {
		return nil, nil, err
	}
	rows := []Figure2Row{*baseline, *full}
	table := &Table{
		Title:   "E3 / Figure 2: architecture end-to-end — Slurm-only vs +daemon second-level scheduling",
		Columns: []string{"setup", "prod_mean_wait", "test_mean_wait", "dev_mean_wait", "qpu_util", "preemptions", "completed"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Setup, fmtDur(r.ProdMeanWait), fmtDur(r.TestMeanWait), fmtDur(r.DevMeanWait),
			fmtPct(r.QPUUtil), fmt.Sprintf("%d", r.Preemptions), fmt.Sprintf("%d", r.Completed),
		})
	}
	return rows, table, nil
}

// runFigure2Baseline: jobs flow through Slurm partitions but hit the device
// queue directly — first-come-first-served at the QPU, no preemption.
func runFigure2Baseline(arrivals []figure2Arrival, seed int64) (*Figure2Row, error) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: seed, DriftInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	cluster, err := slurm.NewCluster(slurm.ClusterConfig{
		Clock: clk, Nodes: 32,
		Partitions: []slurm.Partition{
			{Name: "production", Priority: 100},
			{Name: "test", Priority: 50},
			{Name: "dev", Priority: 10},
		},
	})
	if err != nil {
		return nil, err
	}
	type rec struct {
		class sched.Class
		task  string
	}
	var recs []rec
	completed := 0
	for _, a := range arrivals {
		a := a
		clk.Schedule(a.at, "arrival", func() {
			partition := a.class.String()
			_, err := cluster.Submit(slurm.JobSpec{
				Name: "hybrid", User: "user", Partition: partition, Nodes: 1,
				Walltime: 4 * time.Hour, ActualRuntime: time.Duration(a.shots+60) * time.Second,
				OnStart: func(_ int, env map[string]string) {
					taskID, err := dev.Submit(figure2Program(a.shots))
					if err == nil {
						recs = append(recs, rec{a.class, taskID})
					}
				},
				OnFinish: func(int, slurm.JobState) { completed++ },
			})
			if err != nil {
				panic(err)
			}
		})
	}
	// The device's drift/QA events self-reschedule forever, so the event
	// queue never drains; run to a fixed horizon instead.
	clk.RunUntil(12 * time.Hour)

	row := &Figure2Row{Setup: "slurm-only (device FIFO)"}
	waits := map[sched.Class][]time.Duration{}
	for _, r := range recs {
		w, err := dev.WaitTime(r.task)
		if err == nil {
			waits[r.class] = append(waits[r.class], w)
		}
	}
	row.ProdMeanWait = meanDur(waits[sched.ClassProduction])
	row.TestMeanWait = meanDur(waits[sched.ClassTest])
	row.DevMeanWait = meanDur(waits[sched.ClassDev])
	row.QPUUtil = dev.Utilization()
	row.Completed = completed
	return row, nil
}

// runFigure2Daemon: the same trace, now with the middleware daemon providing
// class queues and production preemption between Slurm and the device.
func runFigure2Daemon(arrivals []figure2Arrival, seed int64) (*Figure2Row, error) {
	clk := simclock.New()
	dmn, err := daemon.NewNode(daemon.NodeSpec{
		Partitions: 1,
		Device:     device.Config{DriftInterval: time.Hour},
		Daemon: daemon.Config{Clock: clk, AdminToken: "admin", EnablePreemption: true,
			Registry: telemetry.NewRegistry(), Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	dev := dmn.Devices()[0]
	cluster, err := slurm.NewCluster(slurm.ClusterConfig{
		Clock: clk, Nodes: 32,
		Partitions: []slurm.Partition{
			{Name: "production", Priority: 100},
			{Name: "test", Priority: 50},
			{Name: "dev", Priority: 10},
		},
	})
	if err != nil {
		return nil, err
	}
	completed := 0
	for _, a := range arrivals {
		a := a
		clk.Schedule(a.at, "arrival", func() {
			partition := a.class.String()
			_, err := cluster.Submit(slurm.JobSpec{
				Name: "hybrid", User: "user-" + partition, Partition: partition, Nodes: 1,
				Walltime: 4 * time.Hour, ActualRuntime: time.Duration(a.shots+60) * time.Second,
				OnStart: func(_ int, env map[string]string) {
					// The runtime connects to the daemon; the job's
					// class comes from the Slurm-propagated priority
					// (paper §3.3).
					sess, err := dmn.OpenSession(env["SLURM_JOB_USER"])
					if err != nil {
						return
					}
					prio := 0
					fmt.Sscanf(env["SLURM_JOB_PRIORITY"], "%d", &prio)
					raw, err := figure2Program(a.shots).MarshalJSON()
					if err != nil {
						return
					}
					_, _ = dmn.Submit(sess.Token, daemon.SubmitRequest{
						Program: raw,
						Class:   sched.ClassFromSlurmPriority(prio),
					})
				},
				OnFinish: func(int, slurm.JobState) { completed++ },
			})
			if err != nil {
				panic(err)
			}
		})
	}
	clk.RunUntil(12 * time.Hour) // bounded horizon; see baseline comment

	rep := dmn.AdminStatus()
	row := &Figure2Row{
		Setup:        "slurm + daemon (second-level)",
		ProdMeanWait: rep.MeanWait["production"],
		TestMeanWait: rep.MeanWait["test"],
		DevMeanWait:  rep.MeanWait["dev"],
		QPUUtil:      dev.Utilization(),
		Preemptions:  rep.Preemptions,
		Completed:    completed,
	}
	return row, nil
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// --- A3: GRES timeshare ---

// GRESRow is one timeshare configuration measurement.
type GRESRow struct {
	UnitsPerJob int
	Concurrency int
	Makespan    time.Duration
	GresUtil    float64
}

// RunGRESTimeshare executes ablation A3: QPU GRES in 10% units (§3.5). Jobs
// requesting fewer units co-schedule; jobs requesting all 10 serialize.
func RunGRESTimeshare(seed int64) ([]GRESRow, *Table, error) {
	var rows []GRESRow
	for _, units := range []int{10, 5, 2, 1} {
		clk := simclock.New()
		cluster, err := slurm.NewCluster(slurm.ClusterConfig{
			Clock: clk, Nodes: 32, QPUGres: 10,
			Partitions: []slurm.Partition{{Name: "work", Priority: 10}},
		})
		if err != nil {
			return nil, nil, err
		}
		const jobs = 10
		for i := 0; i < jobs; i++ {
			_, err := cluster.Submit(slurm.JobSpec{
				Name: "share", User: "u", Partition: "work", Nodes: 1,
				Walltime: 600 * time.Second, QPUUnits: units,
			})
			if err != nil {
				return nil, nil, err
			}
		}
		// Peak concurrency is visible right after submission.
		stats := cluster.Stats()
		concurrency := stats.Running
		clk.Run(0)
		stats = cluster.Stats()
		rows = append(rows, GRESRow{
			UnitsPerJob: units, Concurrency: concurrency,
			Makespan: stats.Elapsed, GresUtil: stats.GresUtilization,
		})
	}
	table := &Table{
		Title:   "A3: QPU GRES timeshares (10 units = 100%), 10 identical jobs",
		Columns: []string{"units_per_job", "peak_concurrency", "makespan", "gres_util"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d (%d%%)", r.UnitsPerJob, r.UnitsPerJob*10),
			fmt.Sprintf("%d", r.Concurrency), fmtDur(r.Makespan), fmtPct(r.GresUtil),
		})
	}
	return rows, table, nil
}

// --- A4: drift detection ---

// DriftRow is one injected-drift measurement.
type DriftRow struct {
	InjectedDrift  float64
	Detected       bool
	DetectionDelay time.Duration
	AlertFired     bool
}

// RunDriftDetection executes ablation A4: inject calibration errors of
// increasing magnitude into the device, stream its telemetry through the
// TSDB, and measure how long the EWMA drift detector and the alert rule take
// to flag the degradation. Small drifts inside the warn band must NOT alert.
func RunDriftDetection(seed int64) ([]DriftRow, *Table, error) {
	var rows []DriftRow
	for _, drift := range []float64{0.01, 0.08, 0.20} {
		clk := simclock.New()
		db := telemetry.NewTSDB(0, 0)
		dev, err := device.New(device.Config{
			Clock: clk, Seed: seed, TSDB: db,
			DriftInterval: 10 * time.Second, DriftSigma: 1e-9, // freeze natural drift
		})
		if err != nil {
			return nil, nil, err
		}
		det := telemetry.NewDriftDetector()
		am := telemetry.NewAlertManager(db)
		if err := am.AddRule(&telemetry.AlertRule{
			Name:     "rabi-drift",
			Series:   "qpu_calib_rabi_factor",
			Labels:   telemetry.Labels{"device": dev.Spec().Name},
			Severity: telemetry.SeverityCritical,
			Predicate: func(v float64) bool {
				return det.Observe(v) != telemetry.DriftOK
			},
			For: 30 * time.Second,
		}); err != nil {
			return nil, nil, err
		}
		// Warm-up: 200 healthy samples.
		for i := 0; i < 200; i++ {
			clk.Advance(10 * time.Second)
			am.Evaluate(clk.Now())
		}
		// Inject the step.
		injectAt := clk.Now()
		dev.InjectCalibrationError(drift, 0)
		row := DriftRow{InjectedDrift: drift}
		for i := 0; i < 200; i++ {
			clk.Advance(10 * time.Second)
			fired := am.Evaluate(clk.Now())
			if len(fired) > 0 {
				row.AlertFired = true
				row.Detected = true
				row.DetectionDelay = clk.Now() - injectAt
				break
			}
			if det.State() != telemetry.DriftOK && !row.Detected {
				row.Detected = true
				row.DetectionDelay = clk.Now() - injectAt
			}
		}
		rows = append(rows, row)
	}
	table := &Table{
		Title:   "A4: calibration drift injection vs detection latency",
		Columns: []string{"injected_rabi_drift", "detected", "detection_delay", "alert_fired"},
	}
	for _, r := range rows {
		delay := "-"
		if r.Detected {
			delay = fmtDur(r.DetectionDelay)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f%%", r.InjectedDrift*100),
			fmt.Sprintf("%v", r.Detected), delay, fmt.Sprintf("%v", r.AlertFired),
		})
	}
	return rows, table, nil
}
