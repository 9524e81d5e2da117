package device

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

func testProgram(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

func newTestDevice(t *testing.T, clk *simclock.Clock) *Device {
	t.Helper()
	d, err := New(Config{Clock: clk, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRequiresClock(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestSubmitAndComplete(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	id, err := d.Submit(testProgram(30))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := d.TaskStatus(id)
	if st != TaskRunning {
		t.Fatalf("state = %s, want running (idle device starts immediately)", st)
	}
	// 30 shots at 1 Hz = 30 s of QPU time.
	clk.Advance(29 * time.Second)
	if st, _ := d.TaskStatus(id); st != TaskRunning {
		t.Fatalf("finished early: %s", st)
	}
	clk.Advance(2 * time.Second)
	if st, _ := d.TaskStatus(id); st != TaskCompleted {
		t.Fatalf("state = %s, want completed", st)
	}
	res, err := d.TaskResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 30 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if res.Metadata["backend"] != "analog-qpu" || res.Metadata["method"] != "hardware" {
		t.Fatalf("metadata = %v", res.Metadata)
	}
	if res.Metadata["calib_rabi_factor"] == "" {
		t.Fatal("missing calibration metadata")
	}
	if res.QPUSeconds != 30 {
		t.Fatalf("QPUSeconds = %g", res.QPUSeconds)
	}
}

func TestFIFOQueueing(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	id1, _ := d.Submit(testProgram(10))
	id2, _ := d.Submit(testProgram(10))
	id3, _ := d.Submit(testProgram(10))
	if d.QueueLength() != 2 {
		t.Fatalf("queue length = %d", d.QueueLength())
	}
	clk.Advance(11 * time.Second)
	s1, _ := d.TaskStatus(id1)
	s2, _ := d.TaskStatus(id2)
	if s1 != TaskCompleted || s2 != TaskRunning {
		t.Fatalf("after 11s: %s %s", s1, s2)
	}
	clk.Advance(10 * time.Second)
	s3, _ := d.TaskStatus(id3)
	if s3 != TaskRunning {
		t.Fatalf("third task: %s", s3)
	}
	clk.Advance(10 * time.Second)
	s3, _ = d.TaskStatus(id3)
	if s3 != TaskCompleted {
		t.Fatalf("third task: %s", s3)
	}
	// Wait times reflect queue position.
	w1, _ := d.WaitTime(id1)
	w3, _ := d.WaitTime(id3)
	if w1 != 0 || w3 != 20*time.Second {
		t.Fatalf("waits: %s %s", w1, w3)
	}
}

func TestSubmitValidatesAgainstSpec(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	// Digital circuits are rejected by the analog spec at validation.
	p := qir.NewDigitalProgram(qir.NewCircuit(2).H(0), 10)
	if _, err := d.Submit(p); err == nil {
		t.Fatal("digital program accepted by analog device")
	}
	// Too many shots.
	if _, err := d.Submit(testProgram(1000000)); err == nil {
		t.Fatal("oversized shot count accepted")
	}
}

func TestCancelQueued(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	d.Submit(testProgram(100))
	id2, _ := d.Submit(testProgram(10))
	if err := d.Cancel(id2); err != nil {
		t.Fatal(err)
	}
	st, _ := d.TaskStatus(id2)
	if st != TaskCancelled {
		t.Fatalf("state = %s", st)
	}
	if _, err := d.TaskResult(id2); err == nil {
		t.Fatal("cancelled task returned a result")
	}
	if err := d.Cancel(id2); err == nil {
		t.Fatal("double cancel accepted")
	}
}

func TestCancelRunningStartsNext(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	id1, _ := d.Submit(testProgram(1000))
	id2, _ := d.Submit(testProgram(10))
	clk.Advance(5 * time.Second)
	if err := d.Cancel(id1); err != nil {
		t.Fatal(err)
	}
	s2, _ := d.TaskStatus(id2)
	if s2 != TaskRunning {
		t.Fatalf("next task not started: %s", s2)
	}
	clk.Advance(11 * time.Second)
	s2, _ = d.TaskStatus(id2)
	if s2 != TaskCompleted {
		t.Fatalf("next task: %s", s2)
	}
}

func TestMaintenanceBlocksSubmission(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	d.StartMaintenance()
	if _, err := d.Submit(testProgram(10)); err == nil {
		t.Fatal("submission accepted during maintenance")
	}
	d.EndMaintenance()
	if _, err := d.Submit(testProgram(10)); err != nil {
		t.Fatalf("submission rejected after maintenance: %v", err)
	}
}

func TestMaintenanceHoldsQueue(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	id1, _ := d.Submit(testProgram(10))
	id2, _ := d.Submit(testProgram(10))
	d.StartMaintenance()
	// Running task finishes; queued task must not start.
	clk.Advance(30 * time.Second)
	s1, _ := d.TaskStatus(id1)
	s2, _ := d.TaskStatus(id2)
	if s1 != TaskCompleted {
		t.Fatalf("running task during maintenance: %s", s1)
	}
	if s2 != TaskQueued {
		t.Fatalf("queued task started during maintenance: %s", s2)
	}
	d.EndMaintenance()
	clk.Advance(11 * time.Second)
	s2, _ = d.TaskStatus(id2)
	if s2 != TaskCompleted {
		t.Fatalf("after maintenance: %s", s2)
	}
}

func TestCalibrationDrift(t *testing.T) {
	clk := simclock.New()
	d, err := New(Config{Clock: clk, Seed: 1, DriftInterval: time.Second, DriftSigma: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	before := d.CalibrationSnapshot()
	clk.Advance(100 * time.Second)
	after := d.CalibrationSnapshot()
	if before.RabiFactor == after.RabiFactor {
		t.Fatal("calibration did not drift")
	}
	// Guardrails hold.
	if after.RabiFactor < 0.5 || after.RabiFactor > 1.5 {
		t.Fatalf("rabi factor escaped guardrails: %g", after.RabiFactor)
	}
}

func TestRecalibrateResets(t *testing.T) {
	clk := simclock.New()
	d, _ := New(Config{Clock: clk, Seed: 1, DriftInterval: time.Second, DriftSigma: 0.05})
	clk.Advance(200 * time.Second)
	d.Recalibrate()
	c := d.CalibrationSnapshot()
	if c.RabiFactor != 1.0 || c.DetuningOffset != 0 {
		t.Fatalf("recalibrate: %+v", c)
	}
	if c.LastCalibrated != clk.Now() {
		t.Fatalf("LastCalibrated = %s", c.LastCalibrated)
	}
}

func TestQADegradesAndRecovers(t *testing.T) {
	clk := simclock.New()
	d, _ := New(Config{Clock: clk, Seed: 1, DriftInterval: time.Hour})
	// Force a bad calibration directly, then run QA.
	d.calib.RabiFactor = 1.2
	if d.RunQACheck() {
		t.Fatal("QA passed with 20% rabi error")
	}
	if d.Status() != StatusDegraded {
		t.Fatalf("status = %s", d.Status())
	}
	d.Recalibrate()
	if d.Status() != StatusOnline {
		t.Fatalf("status after recalibrate = %s", d.Status())
	}
	if !d.RunQACheck() {
		t.Fatal("QA failed after recalibration")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	d.Submit(testProgram(10)) // 10 s busy
	clk.Advance(20 * time.Second)
	util := d.Utilization()
	if math.Abs(util-0.5) > 0.01 {
		t.Fatalf("utilization = %g, want 0.5", util)
	}
}

func TestMiscalibratedDeviceDistortsResults(t *testing.T) {
	// A π pulse on a well-calibrated device yields mostly |1⟩; with a badly
	// miscalibrated Rabi factor the excited population must drop.
	run := func(rabiFactor float64) float64 {
		clk := simclock.New()
		d, _ := New(Config{Clock: clk, Seed: 7, DriftInterval: 100 * time.Hour})
		d.calib.RabiFactor = rabiFactor
		d.calib.AtomLossProb = 0
		seq := qir.NewAnalogSequence(qir.LinearRegister("one", 1, 10))
		omega := 2 * math.Pi
		tPi := math.Pi / omega * 1000
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
			Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
		})
		id, err := d.Submit(qir.NewAnalogProgram(seq, 400))
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(500 * time.Second)
		res, err := d.TaskResult(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.Counts.Probability("1")
	}
	good := run(1.0)
	bad := run(0.6) // 40% amplitude error → drive is a 0.6π pulse
	if good < 0.9 {
		t.Fatalf("calibrated P(1) = %g", good)
	}
	if bad > good-0.1 {
		t.Fatalf("miscalibration had no effect: good=%g bad=%g", good, bad)
	}
}

func TestTelemetryEmission(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	db := telemetry.NewTSDB(0, 0)
	d, err := New(Config{Clock: clk, Seed: 3, Registry: reg, TSDB: db, DriftInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	d.Submit(testProgram(5))
	clk.Advance(10 * time.Second)
	if got := exposed(t, reg, "qpu_shots_total"); got != 5 {
		t.Fatalf("shots counter = %g", got)
	}
	if got := exposed(t, reg, `qpu_tasks_total{state="completed"}`); got != 1 {
		t.Fatalf("tasks counter = %g", got)
	}
	pts := db.Query("qpu_calib_rabi_factor", telemetry.Labels{"device": "analog-qpu"}, 0, time.Hour)
	if len(pts) < 5 {
		t.Fatalf("calibration series has %d points", len(pts))
	}
	if _, ok := db.Latest("qpu_up", telemetry.Labels{"device": "analog-qpu"}); !ok {
		t.Fatal("qpu_up series missing")
	}
}

func TestAdminSnapshot(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	d.Submit(testProgram(10))
	d.Submit(testProgram(10))
	snap := d.AdminSnapshot()
	if snap.Name != "analog-qpu" || snap.Status != StatusOnline {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.QueueLength != 1 || snap.Running == "" {
		t.Fatalf("queue/running: %+v", snap)
	}
	clk.Advance(25 * time.Second)
	snap = d.AdminSnapshot()
	if snap.TasksTotal != 2 || snap.ShotsTotal != 20 {
		t.Fatalf("totals: %+v", snap)
	}
}

func TestTaskIDsSorted(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	for i := 0; i < 12; i++ {
		d.Submit(testProgram(1))
	}
	ids := d.TaskIDs()
	if len(ids) != 12 {
		t.Fatalf("got %d ids", len(ids))
	}
	for i, id := range ids {
		if id != "qpu-task-"+strconv.Itoa(i+1) {
			t.Fatalf("ids not in submission order: %v", ids)
		}
	}
}

func TestUnknownTaskErrors(t *testing.T) {
	clk := simclock.New()
	d := newTestDevice(t, clk)
	if _, err := d.TaskStatus("ghost"); err == nil {
		t.Fatal("unknown status accepted")
	}
	if _, err := d.TaskResult("ghost"); err == nil {
		t.Fatal("unknown result accepted")
	}
	if err := d.Cancel("ghost"); err == nil {
		t.Fatal("unknown cancel accepted")
	}
	if _, err := d.WaitTime("ghost"); err == nil {
		t.Fatal("unknown wait accepted")
	}
}

func TestDigitalRoadmapDevice(t *testing.T) {
	clk := simclock.New()
	d, err := New(Config{Clock: clk, Seed: 61, Spec: qir.DefaultDigitalSpec()})
	if err != nil {
		t.Fatal(err)
	}
	// Gate circuits run on the digital device...
	id, err := d.Submit(qir.NewDigitalProgram(qir.NewCircuit(2).H(0).CX(0, 1), 20))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Second) // 2 Hz shot rate → 10s + margin
	res, err := d.TaskResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 20 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	// ...and Bell correlations survive readout noise.
	if res.Counts["00"]+res.Counts["11"] < 15 {
		t.Fatalf("bell counts degraded: %v", res.Counts)
	}
	// Analog programs still work on it too (spec permits both).
	if _, err := d.Submit(testProgram(5)); err != nil {
		t.Fatalf("analog on digital device: %v", err)
	}
}

func TestDigitalDeviceWideCircuitUsesMPS(t *testing.T) {
	clk := simclock.New()
	d, _ := New(Config{Clock: clk, Seed: 62, Spec: qir.DefaultDigitalSpec()})
	// 16 qubits exceeds the SV cutoff (12): the MPS substrate handles it.
	c := qir.NewCircuit(16).H(0)
	for i := 0; i < 15; i++ {
		c.CX(i, i+1)
	}
	id, err := d.Submit(qir.NewDigitalProgram(c, 10))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	res, err := d.TaskResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 10 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
}

// TestForget: the owner of a task's outcome may drop the device's record of
// it, but only once the task is terminal — a live task cannot be lost.
func TestForget(t *testing.T) {
	clk := simclock.New()
	d, err := New(Config{Clock: clk, Seed: 42, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := d.Submit(testProgram(10))
	queued, _ := d.Submit(testProgram(10))
	cancelled, _ := d.Submit(testProgram(10))
	if err := d.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	completed, _ := d.Submit(testProgram(10))

	cases := []struct {
		name      string
		id        string
		state     TaskState
		forgotten bool
	}{
		{"running", running, TaskRunning, false},
		{"queued", queued, TaskQueued, false},
		{"cancelled", cancelled, TaskCancelled, true},
		{"unknown", "qpu-task-999", "", true},
	}
	check := func(name, id string, state TaskState, forgotten bool) {
		t.Helper()
		d.Forget(id)
		st, err := d.TaskStatus(id)
		switch {
		case forgotten && (err == nil || err.Error() != `device: unknown task "`+id+`"`):
			t.Fatalf("%s: forgotten task reads (%q, %v), want unknown task", name, st, err)
		case !forgotten && (err != nil || st != state):
			t.Fatalf("%s: live task reads (%q, %v) after Forget, want %s", name, st, err, state)
		}
	}
	for _, c := range cases {
		check(c.name, c.id, c.state, c.forgotten)
	}
	// The survivors run to completion, untouched by the attempts above.
	clk.Advance(time.Minute)
	for _, id := range []string{running, queued, completed} {
		if res, err := d.TaskResult(id); err != nil || res.QPUSeconds != 10 {
			t.Fatalf("%s: result (%v, %v) after the run", id, res, err)
		}
		check("completed", id, TaskCompleted, true)
		if _, err := d.TaskResult(id); err == nil {
			t.Fatalf("%s: forgotten task still has a result", id)
		}
	}
	if ids := d.TaskIDs(); len(ids) != 0 {
		t.Fatalf("task table holds %v after every task was forgotten", ids)
	}
	if snap := d.AdminSnapshot(); snap.TasksTotal != 3 {
		t.Fatalf("forgetting changed the counters: tasks_total = %d, want 3", snap.TasksTotal)
	}
}

// TestFullFidelityResultReproducible: with the emulator in the loop (no
// TimingOnly), one program on two identically seeded devices yields results
// that marshal byte-equal — DESIGN §5's determinism rule, which the emulator's
// wall-clock elapsed_ms stamp used to break.
func TestFullFidelityResultReproducible(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		clk := simclock.New()
		d := newTestDevice(t, clk)
		clk.Advance(90 * time.Minute) // let calibration drift: the metadata carries it
		id, err := d.Submit(testProgram(40))
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Minute)
		res, err := d.TaskResult(id)
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("same program, seed and history, different results:\n %s\n %s", runs[0], runs[1])
	}
}

// exposed reads one sample line of reg's exposition text, such as
// `qpu_tasks_total{state="completed"}`, and fails the test when it is absent.
func exposed(t *testing.T, reg *telemetry.Registry, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("%s is not exposed", series)
	return 0
}
