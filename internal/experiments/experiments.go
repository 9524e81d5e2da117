// Package experiments implements the reproduction drivers for every table
// and figure of the paper, plus the ablations listed in DESIGN.md §4. Each
// driver returns structured rows and renders the same table the paper's
// artifact would, so cmd/hpcsim regenerates the evaluation and the root
// benchmarks measure it.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"hpcqc/internal/core"
	"hpcqc/internal/emulator"
	"hpcqc/internal/hybrid"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/workload"
)

// Table renders rows of labelled values as an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range t.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
		_ = i
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fmtDur(d time.Duration) string { return fmt.Sprintf("%.0fs", d.Seconds()) }
func fmtPct(f float64) string       { return fmt.Sprintf("%.1f%%", f*100) }

// --- E1: Table 1 — pattern taxonomy and scheduler hints ---

// Table1Row is one (mix, policy) measurement.
type Table1Row struct {
	Mix        string
	Policy     Policy
	Makespan   time.Duration
	QPUUtil    float64
	QPUIdle    time.Duration
	Preempts   int
	MeanWaitAl time.Duration
}

// RunTable1 executes the Table 1 reproduction: for each workload mix, run
// the hint-blind exclusive baseline and the hint-aware interleave policy on
// the daemon and compare QPU utilization, held-idle time and makespan. The
// paper's claim under test: interleaving "kills QPU idle time" for CC-heavy
// mixes while QC-heavy work degenerates to the sequential QPU queue.
func RunTable1(seed int64) ([]Table1Row, *Table, error) {
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"A: QC-heavy only", workload.Mix{QCHeavy: 6}},
		{"B: CC-heavy only", workload.Mix{CCHeavy: 6}},
		{"C: balanced only", workload.Mix{Balanced: 6}},
		{"mixed A+B+C", workload.Mix{QCHeavy: 2, CCHeavy: 2, Balanced: 2}},
	}
	var rows []Table1Row
	for _, m := range mixes {
		for _, pol := range []Policy{PolicyExclusiveFIFO, PolicyInterleave} {
			jobs := table1Batch(seed, m.mix) // same jobs per policy
			run, err := runQPU(pol.config(1, seed), jobs)
			if err != nil {
				return nil, nil, fmt.Errorf("%s, %s: %w", m.name, pol, err)
			}
			var wait time.Duration
			for _, j := range jobs {
				wait += j.start - j.submit
			}
			rows = append(rows, Table1Row{
				Mix: m.name, Policy: pol,
				Makespan: run.makespan, QPUUtil: run.utilization(),
				QPUIdle: run.held - run.busy, Preempts: run.preempts,
				MeanWaitAl: wait / time.Duration(len(jobs)),
			})
		}
	}
	table := &Table{
		Title:   "E1 / Table 1: workload patterns × scheduling policy",
		Columns: []string{"mix", "policy", "makespan", "qpu_util", "qpu_held_idle", "mean_wait"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Mix, r.Policy.String(), fmtDur(r.Makespan), fmtPct(r.QPUUtil), fmtDur(r.QPUIdle), fmtDur(r.MeanWaitAl),
		})
	}
	return rows, table, nil
}

// table1Batch builds a mix's test-class jobs, all arriving at once: each
// pattern's quantum/classical segment pairs jittered by ±20 % (floored at
// 1 s), QC-heavy then CC-heavy then balanced jobs, then shuffled — the draw
// order E1 has always used, so a seed builds the same jobs.
func table1Batch(seed int64, m workload.Mix) []*qpuJob {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(d time.Duration) time.Duration {
		return max(time.Duration(float64(d)*(1+(rng.Float64()*2-1)*0.2)), time.Second)
	}
	specs := workload.DefaultPatternSpecs()
	var jobs []*qpuJob
	for _, pn := range []struct {
		p sched.Pattern
		n int
	}{{sched.PatternQCHeavy, m.QCHeavy}, {sched.PatternCCHeavy, m.CCHeavy}, {sched.PatternBalanced, m.Balanced}} {
		spec := specs[pn.p]
		for i := 0; i < pn.n; i++ {
			j := &qpuJob{class: sched.ClassTest}
			for s := 0; s < spec.QuantumSegments; s++ {
				j.segs = append(j.segs, segment{true, jitter(spec.QuantumSeg)}, segment{false, jitter(spec.ClassicalSeg)})
			}
			jobs = append(jobs, j)
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// --- E2: Figure 1 — portability across environments ---

// Figure1Row is one execution stage of the unchanged program.
type Figure1Row struct {
	Stage    string
	Resource string
	Backend  string
	PZ2      float64
	TVDvsRef float64
	Elapsed  time.Duration
}

// RunFigure1 executes the Figure 1 reproduction: one adiabatic Z2 state
// preparation program, written once, runs on the local exact emulator
// (development), the HPC tensor-network emulator (testing at scale), and the
// QPU device model (production) — switched by resource name only. The claim
// under test: no source change, physics consistent across stages, device
// characteristics fetched per stage.
func RunFigure1(seed int64) ([]Figure1Row, *Table, error) {
	// The unchanged program: 7-atom adiabatic sweep into the Z2 phase.
	build := func() *qir.Program {
		omega := 2 * math.Pi
		seq := qir.NewAnalogSequence(qir.LinearRegister("chain", 7, 5.5))
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.RampWaveform{Dur: 600, Start: 0, Stop: omega},
			Detuning:  qir.ConstantWaveform{Dur: 600, Val: -1.5 * omega},
		})
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: 2500, Val: omega},
			Detuning:  qir.RampWaveform{Dur: 2500, Start: -1.5 * omega, Stop: 1.5 * omega},
		})
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.RampWaveform{Dur: 600, Start: omega, Stop: 0},
			Detuning:  qir.ConstantWaveform{Dur: 600, Val: 1.5 * omega},
		})
		return qir.NewAnalogProgram(seq, 500)
	}

	stages := []struct {
		stage, resource string
	}{
		{"develop (laptop)", "local-sv"},
		{"test (HPC emulator)", "hpc-mps"},
		{"production (QPU)", "qpu-onprem"},
	}
	var rows []Figure1Row
	var ref qir.Counts
	environ := []string{fmt.Sprintf("QRMI_SEED=%d", seed), "QRMI_QPU_POLL_ADVANCE_S=60"}
	for _, st := range stages {
		rt, err := core.NewRuntimeFor(st.resource, "", environ)
		if err != nil {
			return nil, nil, fmt.Errorf("stage %s: %w", st.stage, err)
		}
		// Device characteristics are fetched at every stage; validation
		// against them is part of the run.
		start := time.Now()
		res, err := rt.Execute(build())
		if err != nil {
			return nil, nil, fmt.Errorf("stage %s: %w", st.stage, err)
		}
		elapsed := time.Since(start)
		if ref == nil {
			ref = res.Counts
		}
		rows = append(rows, Figure1Row{
			Stage:    st.stage,
			Resource: st.resource,
			Backend:  res.Metadata["backend"],
			PZ2:      res.Counts.Probability("1010101"),
			TVDvsRef: emulator.TotalVariationDistance(ref, res.Counts),
			Elapsed:  elapsed,
		})
	}
	table := &Table{
		Title:   "E2 / Figure 1: one program, three environments (--qpu switch only)",
		Columns: []string{"stage", "resource", "backend", "P(Z2 state)", "TVD vs dev", "wall"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Stage, r.Resource, r.Backend,
			fmt.Sprintf("%.3f", r.PZ2), fmt.Sprintf("%.3f", r.TVDvsRef),
			r.Elapsed.Round(time.Millisecond).String(),
		})
	}
	return rows, table, nil
}

// --- A1: MPS bond-dimension ablation ---

// BondSweepRow is one (N, χ) measurement.
type BondSweepRow struct {
	Qubits   int
	Chi      int
	Fidelity float64 // vs exact; NaN when exact is unavailable
	TruncErr float64
	Wall     time.Duration
}

// RunBondSweep executes ablation A1: the χ fidelity/cost trade-off of the
// tensor-network emulator on quench dynamics, including the χ=1 mock mode
// and sizes beyond exact emulation.
func RunBondSweep(seed int64) ([]BondSweepRow, *Table, error) {
	return runBondSweep(seed, []int{8, 12, 24}, []int{1, 2, 4, 8, 16, 32})
}

// runBondSweep is RunBondSweep over selectable register sizes and bond
// dimensions, so short-mode tests can run a reduced deterministic slice of
// the (expensive) full sweep.
func runBondSweep(seed int64, sizes, chis []int) ([]BondSweepRow, *Table, error) {
	spec := qir.DefaultAnalogSpec()
	quench := func(n int) *qir.AnalogSequence {
		seq := qir.NewAnalogSequence(qir.LinearRegister("chain", n, 7))
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: 400, Val: 2 * math.Pi},
			Detuning:  qir.ConstantWaveform{Dur: 400, Val: 0},
		})
		return seq
	}
	var rows []BondSweepRow
	for _, n := range sizes {
		seq := quench(n)
		// Exact reference when feasible.
		var exact *emulator.StateVector
		if n <= 12 {
			sv, err := emulator.NewStateVector(n)
			if err != nil {
				return nil, nil, err
			}
			if err := sv.EvolveAnalog(seq, spec.C6, 0.5); err != nil {
				return nil, nil, err
			}
			exact = sv
		}
		for _, chi := range chis {
			start := time.Now()
			m, err := emulator.NewMPS(n, chi)
			if err != nil {
				return nil, nil, err
			}
			if err := m.EvolveAnalogTEBD(seq, spec.C6, 2); err != nil {
				return nil, nil, err
			}
			wall := time.Since(start)
			fid := math.NaN()
			if exact != nil {
				msv, err := m.ToStateVector()
				if err != nil {
					return nil, nil, err
				}
				fid = emulator.Fidelity(exact, msv)
			}
			rows = append(rows, BondSweepRow{
				Qubits: n, Chi: chi, Fidelity: fid,
				TruncErr: m.TruncationError, Wall: wall,
			})
		}
	}
	table := &Table{
		Title:   "A1: MPS bond dimension χ vs fidelity and cost (quench dynamics)",
		Columns: []string{"qubits", "chi", "fidelity_vs_exact", "trunc_error", "wall"},
	}
	for _, r := range rows {
		fid := "n/a (beyond exact)"
		if !math.IsNaN(r.Fidelity) {
			fid = fmt.Sprintf("%.6f", r.Fidelity)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", r.Qubits), fmt.Sprintf("%d", r.Chi),
			fid, fmt.Sprintf("%.2e", r.TruncErr),
			r.Wall.Round(time.Millisecond).String(),
		})
	}
	return rows, table, nil
}

// --- A2: shot-rate sweep ---

// ShotRateRow is one shot-rate measurement.
type ShotRateRow struct {
	ShotRateHz float64
	Policy     Policy
	Makespan   time.Duration
	QPUUtil    float64
}

// RunShotRateSweep executes ablation A2: a fixed-shot hybrid job at today's
// 1 Hz is quantum-dominated (Table 1 pattern A); at the 100 Hz roadmap the
// same job is classically-dominated (pattern B). The sweep quantifies two of
// the paper's arguments at once: loose coupling suffices at current
// timescales (1 Hz: policies within ~10% of each other), and faster QPUs
// make second-level interleaving more valuable, not less (100 Hz: the
// exclusive baseline's utilization collapses to ~9%).
func RunShotRateSweep(seed int64) ([]ShotRateRow, *Table, error) {
	var rows []ShotRateRow
	for _, rate := range []float64{1, 10, 100} {
		for _, pol := range []Policy{PolicyExclusiveFIFO, PolicyInterleave} {
			// A balanced job at shot rate r: the quantum segment is
			// 600 shots; classical post-processing stays constant.
			q := segment{true, simclock.Seconds(600 / rate)}
			c := segment{false, 60 * time.Second}
			var jobs []*qpuJob
			for i := 0; i < 6; i++ {
				jobs = append(jobs, &qpuJob{class: sched.ClassTest, segs: []segment{q, c, q, c}})
			}
			run, err := runQPU(pol.config(rate, seed), jobs)
			if err != nil {
				return nil, nil, fmt.Errorf("%g Hz, %s: %w", rate, pol, err)
			}
			rows = append(rows, ShotRateRow{
				ShotRateHz: rate, Policy: pol,
				Makespan: run.makespan, QPUUtil: run.utilization(),
			})
		}
	}
	table := &Table{
		Title:   "A2: shot-rate sweep (1 Hz today → 100 Hz roadmap), balanced workload",
		Columns: []string{"shot_rate", "policy", "makespan", "qpu_util"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%g Hz", r.ShotRateHz), r.Policy.String(),
			fmtDur(r.Makespan), fmtPct(r.QPUUtil),
		})
	}
	return rows, table, nil
}

// --- A5: preemption ---

// PreemptionRow compares production wait with and without preemption.
type PreemptionRow struct {
	Policy          string
	MaxProdWait     time.Duration
	MeanProdWait    time.Duration
	DevTurnaround   time.Duration
	Preemptions     int
	JobsCompleted   int
	TotalProduction int
}

// RunPreemption executes ablation A5: flood the QPU with long dev jobs, then
// inject production arrivals. Under the paper's policy production jobs never
// wait behind dev work; without preemption they queue for the full dev job.
func RunPreemption(seed int64) ([]PreemptionRow, *Table, error) {
	var rows []PreemptionRow
	for _, pol := range []Policy{PolicyExclusiveFIFO, PolicyPriorityExclusive, PolicyInterleave} {
		// Dev flood: 5 long quantum jobs; production arrivals at t = 100s,
		// 400s, 900s.
		var jobs []*qpuJob
		for i := 0; i < 5; i++ {
			jobs = append(jobs, &qpuJob{class: sched.ClassDev, segs: []segment{{true, 600 * time.Second}}})
		}
		for _, at := range []time.Duration{100 * time.Second, 400 * time.Second, 900 * time.Second} {
			jobs = append(jobs, &qpuJob{class: sched.ClassProduction, at: at, segs: []segment{{true, 60 * time.Second}}})
		}
		run, err := runQPU(pol.config(1, seed), jobs)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", pol, err)
		}
		row := PreemptionRow{Policy: pol.String(), Preemptions: run.preempts, TotalProduction: 3}
		var prodWait time.Duration
		for _, j := range jobs {
			if j.done {
				row.JobsCompleted++
			}
			switch j.class {
			case sched.ClassDev:
				row.DevTurnaround = max(row.DevTurnaround, j.end-j.submit)
			case sched.ClassProduction:
				row.MaxProdWait = max(row.MaxProdWait, j.start-j.submit)
				prodWait += j.start - j.submit
			}
		}
		row.MeanProdWait = prodWait / time.Duration(row.TotalProduction)
		rows = append(rows, row)
	}
	table := &Table{
		Title:   "A5: production wait under dev flood (preemption ablation)",
		Columns: []string{"policy", "max_prod_wait", "mean_prod_wait", "worst_dev_turnaround", "preemptions"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Policy, fmtDur(r.MaxProdWait), fmtDur(r.MeanProdWait),
			fmtDur(r.DevTurnaround), fmt.Sprintf("%d", r.Preemptions),
		})
	}
	return rows, table, nil
}

// --- A6: SQD post-processing ---

// SQDRow is one SQD measurement.
type SQDRow struct {
	Sampler      string
	SubspaceCap  int
	Energy       float64
	ClassicalOps int64
}

// RunSQD executes ablation A6: the CC-heavy reference pipeline. Quantum
// sampling is cheap; classical diagonalization dominates and scales with the
// subspace, reproducing the workload shape that motivates interleaving.
func RunSQD(seed int64) ([]SQDRow, *Table, error) {
	n := 12
	var rows []SQDRow
	for _, cap := range []int{64, 256, 512} {
		for _, s := range []struct {
			name    string
			sampler func(int) (qir.Counts, error)
		}{
			{"uniform", workload.UniformSampler(n, seed)},
			{"ground-biased", workload.GroundBiasedSampler(n, 1.2, seed)},
		} {
			res, err := workload.SQDPipeline(workload.SQDConfig{
				Qubits: n, Shots: 400, SubspaceCap: cap, Iterations: 3, Seed: seed,
			}, s.sampler)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, SQDRow{
				Sampler: s.name, SubspaceCap: cap,
				Energy: res.Energy, ClassicalOps: res.ClassicalOps,
			})
		}
	}
	table := &Table{
		Title:   "A6: SQD-style sampling + classical diagonalization (12-qubit TFIM)",
		Columns: []string{"sampler", "subspace_cap", "energy", "classical_ops"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Sampler, fmt.Sprintf("%d", r.SubspaceCap),
			fmt.Sprintf("%.4f", r.Energy), fmt.Sprintf("%d", r.ClassicalOps),
		})
	}
	return rows, table, nil
}

// --- A7: malleable classical jobs ---

// MalleableRow is one pool-policy measurement.
type MalleableRow struct {
	Policy         string
	Makespan       time.Duration
	PoolUtil       float64
	MeanTurnaround time.Duration
}

// RunMalleable executes ablation A7: the §2.4 claim that malleable jobs
// (grow/shrink at run time, Viviani et al. [25]) recover the classical
// utilization that rigid allocations waste while hybrid workloads drain
// unevenly. Same task trace, three allocation policies.
func RunMalleable(seed int64) ([]MalleableRow, *Table, error) {
	run := func(name string, minW, maxW int) (MalleableRow, error) {
		clk := simclock.New()
		pool, err := hybrid.NewMalleablePool(clk, 16)
		if err != nil {
			return MalleableRow{}, err
		}
		// Staggered arrivals with uneven work, the post-processing tail
		// of a hybrid campaign.
		works := []float64{320, 160, 480, 80, 240, 400}
		for i, w := range works {
			i, w := i, w
			clk.Schedule(time.Duration(i)*5*time.Second, "arrival", func() {
				_ = pool.Submit(&hybrid.MalleableTask{
					ID:   fmt.Sprintf("%s-%d", name, i),
					Work: w, MinWorkers: minW, MaxWorkers: maxW,
				})
			})
		}
		clk.Run(0)
		if !pool.Done() {
			return MalleableRow{}, fmt.Errorf("pool %s did not drain", name)
		}
		m := pool.Metrics()
		return MalleableRow{
			Policy: name, Makespan: m.Makespan,
			PoolUtil: m.Utilization, MeanTurnaround: m.MeanTurnaround,
		}, nil
	}
	configs := []struct {
		name       string
		minW, maxW int
	}{
		{"rigid (4 workers)", 4, 4},
		{"moldable (2-8)", 2, 8},
		{"malleable (1-16)", 1, 16},
	}
	var rows []MalleableRow
	for _, c := range configs {
		r, err := run(c.name, c.minW, c.maxW)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, r)
	}
	table := &Table{
		Title:   "A7: malleable classical jobs (16-worker pool, staggered uneven trace)",
		Columns: []string{"policy", "makespan", "pool_util", "mean_turnaround"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Policy, fmtDur(r.Makespan), fmtPct(r.PoolUtil), fmtDur(r.MeanTurnaround),
		})
	}
	return rows, table, nil
}
