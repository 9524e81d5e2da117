package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestTable1Shape asserts the paper's Table 1 claims hold in the measured
// data: interleaving beats the exclusive baseline on CC-heavy and mixed
// workloads, and degenerates to the sequential queue for pure QC-heavy work.
func TestTable1Shape(t *testing.T) {
	rows, table, err := RunTable1(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Mix+"|"+r.Policy.String()] = r
	}
	// B: interleave must crush the baseline.
	excl := byKey["B: CC-heavy only|exclusive-fifo"]
	inter := byKey["B: CC-heavy only|interleave"]
	if inter.Makespan >= excl.Makespan {
		t.Fatalf("CC-heavy: interleave %s !< exclusive %s", inter.Makespan, excl.Makespan)
	}
	if inter.QPUUtil <= excl.QPUUtil {
		t.Fatalf("CC-heavy: interleave util %g !> exclusive %g", inter.QPUUtil, excl.QPUUtil)
	}
	if inter.QPUIdle >= excl.QPUIdle {
		t.Fatalf("CC-heavy: interleave idle %s !< exclusive %s", inter.QPUIdle, excl.QPUIdle)
	}
	// Mixed: same direction.
	exclM := byKey["mixed A+B+C|exclusive-fifo"]
	interM := byKey["mixed A+B+C|interleave"]
	if interM.Makespan >= exclM.Makespan || interM.QPUUtil <= exclM.QPUUtil {
		t.Fatalf("mixed: interleave did not win (makespan %s vs %s, util %g vs %g)",
			interM.Makespan, exclM.Makespan, interM.QPUUtil, exclM.QPUUtil)
	}
	// A: QC-heavy work is already sequential; interleave gains little.
	exclA := byKey["A: QC-heavy only|exclusive-fifo"]
	interA := byKey["A: QC-heavy only|interleave"]
	gain := float64(exclA.Makespan-interA.Makespan) / float64(exclA.Makespan)
	if gain > 0.15 {
		t.Fatalf("QC-heavy: interleave gained %.0f%%, expected near-zero", gain*100)
	}
	// Table renders all rows.
	s := table.String()
	if !strings.Contains(s, "interleave") || !strings.Contains(s, "CC-heavy") {
		t.Fatalf("table rendering broken:\n%s", s)
	}
}

// TestFigure1Shape asserts the portability reproduction: three stages run
// the identical program, the Z2 state dominates everywhere, and distribution
// distance between stages stays small.
func TestFigure1Shape(t *testing.T) {
	rows, table, err := RunFigure1(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("stages = %d", len(rows))
	}
	for _, r := range rows {
		if r.PZ2 < 0.25 {
			t.Fatalf("stage %s: P(Z2) = %g", r.Stage, r.PZ2)
		}
	}
	// Emulator stages should agree closely; the QPU stage carries SPAM
	// noise and calibration drift, so the bound is looser.
	if rows[1].TVDvsRef > 0.25 {
		t.Fatalf("HPC emulator TVD = %g", rows[1].TVDvsRef)
	}
	if rows[2].TVDvsRef > 0.6 {
		t.Fatalf("QPU TVD = %g", rows[2].TVDvsRef)
	}
	if !strings.Contains(table.String(), "qpu-onprem") {
		t.Fatal("table missing production stage")
	}
}

// TestFigure2Shape asserts the architecture reproduction: the daemon's
// second scheduling level keeps production waits far below the Slurm-only
// baseline without losing overall utilization.
func TestFigure2Shape(t *testing.T) {
	rows, table, err := RunFigure2(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	baseline, full := rows[0], rows[1]
	if full.ProdMeanWait >= baseline.ProdMeanWait {
		t.Fatalf("daemon prod wait %s !< baseline %s", full.ProdMeanWait, baseline.ProdMeanWait)
	}
	if full.ProdMeanWait > 30*time.Second {
		t.Fatalf("daemon prod wait too high: %s", full.ProdMeanWait)
	}
	if full.Preemptions == 0 {
		t.Fatal("daemon setup recorded no preemptions under dev flood")
	}
	if baseline.Preemptions != 0 {
		t.Fatal("baseline should not preempt")
	}
	// Dev pays for production's priority.
	if full.DevMeanWait <= full.ProdMeanWait {
		t.Fatalf("dev wait %s !> prod wait %s", full.DevMeanWait, full.ProdMeanWait)
	}
	if both := table.String(); !strings.Contains(both, "slurm-only") || !strings.Contains(both, "daemon") {
		t.Fatal("table rendering broken")
	}
}

// TestBondSweepShape asserts the A1 ablation: fidelity grows monotonically
// with χ (up to noise), χ=1 truncates hard, and large registers execute only
// on the tensor-network path. The full sweep dominates this package's test
// time (~40s), so -short runs TestBondSweepShortSlice instead.
func TestBondSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full bond-dimension sweep skipped in -short; TestBondSweepShortSlice covers the fast slice")
	}
	rows, table, err := RunBondSweep(3)
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int][]BondSweepRow{}
	for _, r := range rows {
		byN[r.Qubits] = append(byN[r.Qubits], r)
	}
	for _, n := range []int{8, 12} {
		seq := byN[n]
		// χ=32 saturates at the TEBD method floor (~0.95–0.97 here: the
		// nearest-neighbour truncation drops the long-range C6 tail the
		// exact reference keeps, and the Trotter step adds its own error);
		// χ=1 is markedly worse. The shape under test is the saturation,
		// not agreement with the exact model.
		last := seq[len(seq)-1]
		if last.Fidelity < 0.95 {
			t.Fatalf("n=%d χ=%d fidelity = %g, below the method floor", n, last.Chi, last.Fidelity)
		}
		if seq[0].Fidelity > last.Fidelity {
			t.Fatalf("n=%d: χ=1 fidelity %g above χ=32 %g", n, seq[0].Fidelity, last.Fidelity)
		}
		// χ=1 evolves in the product manifold: the entangling gates are
		// skipped outright (no SVD ever runs), so it reports zero
		// truncation error while being far from exact — the paper's
		// footnote-3 mock mode. Higher χ runs do truncate and say so.
		if seq[0].TruncErr != 0 {
			t.Fatalf("n=%d: χ=1 reported truncation %g in the product manifold", n, seq[0].TruncErr)
		}
		if seq[1].TruncErr == 0 {
			t.Fatalf("n=%d: χ=2 reported zero truncation", n)
		}
	}
	// 24-qubit rows exist with NaN fidelity (beyond exact emulation).
	if len(byN[24]) == 0 || !math.IsNaN(byN[24][0].Fidelity) {
		t.Fatal("24-qubit rows missing or unexpectedly exact")
	}
	if !strings.Contains(table.String(), "beyond exact") {
		t.Fatal("table missing beyond-exact marker")
	}
}

// TestBondSweepShortSlice is the deterministic fast slice of A1 that stays
// on in -short mode: one small register, mock mode versus a real χ, same
// shape claims as the full sweep, and both fidelities pinned to within 1e-6
// of recorded values, so a change to the emulator's numbers cannot pass on
// shape alone.
func TestBondSweepShortSlice(t *testing.T) {
	rows, table, err := runBondSweep(3, []int{8}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	mock, real := rows[0], rows[1]
	if mock.Chi != 1 || real.Chi != 8 {
		t.Fatalf("unexpected chis: %+v", rows)
	}
	if real.Fidelity < 0.9 {
		t.Fatalf("χ=8 fidelity = %g", real.Fidelity)
	}
	if mock.Fidelity > real.Fidelity {
		t.Fatalf("χ=1 fidelity %g above χ=8 %g", mock.Fidelity, real.Fidelity)
	}
	if mock.TruncErr != 0 || real.TruncErr == 0 {
		t.Fatalf("truncation errors: mock=%g real=%g", mock.TruncErr, real.TruncErr)
	}
	for _, pin := range []struct {
		row  BondSweepRow
		want float64
	}{{mock, 0.00015425626816039807}, {real, 0.97252770328840676}} {
		if math.Abs(pin.row.Fidelity-pin.want) > 1e-6 {
			t.Errorf("χ=%d fidelity = %.12f, pinned at %.12f ± 1e-6", pin.row.Chi, pin.row.Fidelity, pin.want)
		}
	}
	if !strings.Contains(table.String(), "chi") {
		t.Fatal("table rendering broken")
	}
}

// TestShotRateShape asserts the A2 ablation: at today's 1 Hz a fixed-shot
// job is quantum-dominated (pattern A) and interleaving gains little; at the
// 100 Hz roadmap the same job becomes classically-dominated (pattern B), the
// exclusive baseline's QPU utilization collapses, and the interleave win
// grows — faster QPUs make the second scheduling level MORE valuable.
func TestShotRateShape(t *testing.T) {
	rows, _, err := RunShotRateSweep(5)
	if err != nil {
		t.Fatal(err)
	}
	gain := map[float64]float64{}
	byRate := map[float64]map[Policy]ShotRateRow{}
	for _, r := range rows {
		if byRate[r.ShotRateHz] == nil {
			byRate[r.ShotRateHz] = map[Policy]ShotRateRow{}
		}
		byRate[r.ShotRateHz][r.Policy] = r
	}
	for rate, m := range byRate {
		excl := m[PolicyExclusiveFIFO]
		inter := m[PolicyInterleave]
		gain[rate] = float64(excl.Makespan-inter.Makespan) / float64(excl.Makespan)
	}
	if gain[100] <= gain[1] {
		t.Fatalf("interleave gain should grow with shot rate: 1Hz=%.2f 100Hz=%.2f", gain[1], gain[100])
	}
	if gain[100] < 0.4 {
		t.Fatalf("100 Hz gain = %.2f, expected substantial", gain[100])
	}
	// The exclusive baseline's utilization collapses as the QPU speeds up;
	// interleaving retains a large multiple of it.
	exclDrop := byRate[1][PolicyExclusiveFIFO].QPUUtil - byRate[100][PolicyExclusiveFIFO].QPUUtil
	if exclDrop < 0.5 {
		t.Fatalf("exclusive utilization drop = %.2f, expected collapse", exclDrop)
	}
	if byRate[100][PolicyInterleave].QPUUtil < 3*byRate[100][PolicyExclusiveFIFO].QPUUtil {
		t.Fatalf("interleave util %.2f not ≫ exclusive %.2f at 100 Hz",
			byRate[100][PolicyInterleave].QPUUtil, byRate[100][PolicyExclusiveFIFO].QPUUtil)
	}
}

// TestPreemptionShape asserts the A5 ablation: with preemption the worst
// production wait collapses to ~0; without it production queues behind the
// dev flood.
func TestPreemptionShape(t *testing.T) {
	rows, _, err := RunPreemption(9)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]PreemptionRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	fifo := byPolicy["exclusive-fifo"]
	inter := byPolicy["interleave"]
	if inter.MaxProdWait != 0 {
		t.Fatalf("interleave max prod wait = %s, want 0", inter.MaxProdWait)
	}
	if fifo.MaxProdWait < 10*time.Minute {
		t.Fatalf("fifo max prod wait = %s, expected long", fifo.MaxProdWait)
	}
	if inter.Preemptions == 0 || fifo.Preemptions != 0 {
		t.Fatalf("preemption counts: fifo=%d inter=%d", fifo.Preemptions, inter.Preemptions)
	}
}

// TestGRESShape asserts the A3 ablation: smaller shares raise concurrency.
func TestGRESShape(t *testing.T) {
	rows, _, err := RunGRESTimeshare(1)
	if err != nil {
		t.Fatal(err)
	}
	byUnits := map[int]GRESRow{}
	for _, r := range rows {
		byUnits[r.UnitsPerJob] = r
	}
	if byUnits[10].Concurrency != 1 {
		t.Fatalf("full-share concurrency = %d", byUnits[10].Concurrency)
	}
	if byUnits[5].Concurrency != 2 || byUnits[2].Concurrency != 5 || byUnits[1].Concurrency != 10 {
		t.Fatalf("concurrency: %+v", byUnits)
	}
	if byUnits[1].Makespan >= byUnits[10].Makespan {
		t.Fatalf("sharing did not shorten makespan: %s vs %s", byUnits[1].Makespan, byUnits[10].Makespan)
	}
}

// TestDriftShape asserts the A4 ablation: sub-threshold drift stays quiet,
// larger drifts are detected, and detection delay is bounded.
func TestDriftShape(t *testing.T) {
	rows, _, err := RunDriftDetection(2)
	if err != nil {
		t.Fatal(err)
	}
	byDrift := map[float64]DriftRow{}
	for _, r := range rows {
		byDrift[r.InjectedDrift] = r
	}
	if byDrift[0.01].AlertFired {
		t.Fatal("1% drift fired an alert")
	}
	for _, d := range []float64{0.08, 0.20} {
		r := byDrift[d]
		if !r.Detected || !r.AlertFired {
			t.Fatalf("%.0f%% drift not detected/alerted: %+v", d*100, r)
		}
		if r.DetectionDelay > 10*time.Minute {
			t.Fatalf("%.0f%% drift detection took %s", d*100, r.DetectionDelay)
		}
	}
	// Bigger drift is caught at least as fast.
	if byDrift[0.20].DetectionDelay > byDrift[0.08].DetectionDelay {
		t.Fatalf("larger drift detected slower: %s vs %s",
			byDrift[0.20].DetectionDelay, byDrift[0.08].DetectionDelay)
	}
}

// TestSQDShape asserts the A6 ablation: classical ops dominate and grow with
// the subspace; the biased sampler reaches lower energy.
func TestSQDShape(t *testing.T) {
	rows, _, err := RunSQD(4)
	if err != nil {
		t.Fatal(err)
	}
	var uni64, uni512, bias512 SQDRow
	for _, r := range rows {
		switch {
		case r.Sampler == "uniform" && r.SubspaceCap == 64:
			uni64 = r
		case r.Sampler == "uniform" && r.SubspaceCap == 512:
			uni512 = r
		case r.Sampler == "ground-biased" && r.SubspaceCap == 512:
			bias512 = r
		}
	}
	if uni512.ClassicalOps <= uni64.ClassicalOps {
		t.Fatalf("classical load did not scale: %d vs %d", uni512.ClassicalOps, uni64.ClassicalOps)
	}
	if bias512.Energy >= uni512.Energy {
		t.Fatalf("biased %g !< uniform %g", bias512.Energy, uni512.Energy)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer-cell") {
		t.Fatalf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), s)
	}
}

// TestMalleableShape asserts the A7 ablation: utilization and makespan
// improve monotonically from rigid through moldable to fully malleable.
func TestMalleableShape(t *testing.T) {
	rows, table, err := RunMalleable(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	rigid, moldable, malleable := rows[0], rows[1], rows[2]
	if !(malleable.Makespan <= moldable.Makespan && moldable.Makespan <= rigid.Makespan) {
		t.Fatalf("makespans not monotone: %s, %s, %s", rigid.Makespan, moldable.Makespan, malleable.Makespan)
	}
	if malleable.Makespan == rigid.Makespan {
		t.Fatal("malleability had no effect")
	}
	if !(malleable.PoolUtil > rigid.PoolUtil) {
		t.Fatalf("utilization: malleable %g !> rigid %g", malleable.PoolUtil, rigid.PoolUtil)
	}
	if malleable.PoolUtil < 0.95 {
		t.Fatalf("malleable pool utilization = %g, want ~1", malleable.PoolUtil)
	}
	if !strings.Contains(table.String(), "malleable") {
		t.Fatal("table rendering broken")
	}
}

// TestDurationHintsShape asserts the A8 ablation: shortest-expected-first
// cuts the dev-class mean wait on an unequal backlog, reorders arrival
// order to do it, and never delays a production arrival.
func TestDurationHintsShape(t *testing.T) {
	rows, table, err := RunDurationHints(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fifo, sjf := rows[0], rows[1]
	if sjf.DevMeanWait >= fifo.DevMeanWait {
		t.Fatalf("sjf mean wait %s !< fifo %s", sjf.DevMeanWait, fifo.DevMeanWait)
	}
	// The hint must not outrank class priority: production preempts and
	// starts immediately under both setups.
	if fifo.ProdWait > 5*time.Second || sjf.ProdWait > 5*time.Second {
		t.Fatalf("production waited: fifo=%s sjf=%s", fifo.ProdWait, sjf.ProdWait)
	}
	// The win comes from reordering, which FIFO by definition does not do
	// (its only start-order inversion can come from the preemption restart).
	if sjf.OrderInverts <= fifo.OrderInverts {
		t.Fatalf("sjf reorderings %d !> fifo %d", sjf.OrderInverts, fifo.OrderInverts)
	}
	if !strings.Contains(table.String(), "shortest-expected-first") {
		t.Fatal("table rendering broken")
	}
}

// TestFairShareShape asserts the A9 ablation: least-served-first rescues the
// casual user from the flooding user's backlog — the casual/hog wait ratio
// falls below 1 from far above it — at identical makespan (same total work).
func TestFairShareShape(t *testing.T) {
	rows, table, err := RunFairShare(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	fifo, fair := rows[0], rows[1]
	if fifo.WaitRatio <= 1.5 {
		t.Fatalf("FIFO wait ratio %.2f — scenario did not starve the casual user", fifo.WaitRatio)
	}
	if fair.CasualMeanWait >= fifo.CasualMeanWait {
		t.Fatalf("fair-share casual wait %s !< fifo %s", fair.CasualMeanWait, fifo.CasualMeanWait)
	}
	if fair.WaitRatio >= fifo.WaitRatio {
		t.Fatalf("wait ratio did not improve: %.2f -> %.2f", fifo.WaitRatio, fair.WaitRatio)
	}
	if fair.Makespan != fifo.Makespan {
		t.Fatalf("makespan changed: %s vs %s (ordering must not change total work)", fair.Makespan, fifo.Makespan)
	}
	if !strings.Contains(table.String(), "least-served-first") {
		t.Fatal("table rendering broken")
	}
}
