package device

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

func TestNewFleetValidation(t *testing.T) {
	clk := simclock.New()
	if _, err := NewFleet(0, Config{Clock: clk}); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := NewFleet(2, Config{}); err == nil {
		t.Fatal("missing clock accepted")
	}
}

func TestNewFleetSinglePartitionKeepsSpecName(t *testing.T) {
	clk := simclock.New()
	f, err := NewFleet(1, Config{Clock: clk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev := f.Devices()[0]
	if dev.ID() != dev.Spec().Name {
		t.Fatalf("single-partition ID = %q, want spec name %q", dev.ID(), dev.Spec().Name)
	}
}

func TestNewFleetPartitionIDsAndSeeds(t *testing.T) {
	clk := simclock.New()
	f, err := NewFleet(3, Config{Clock: clk, Seed: 1, DriftInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ids := f.IDs()
	if len(ids) != 3 || len(f.Devices()) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	want := map[string]bool{"analog-qpu-p0": true, "analog-qpu-p1": true, "analog-qpu-p2": true}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected partition ID %q", id)
		}
		dev, ok := f.Get(id)
		if !ok || dev.ID() != id {
			t.Fatalf("Get(%q) broken", id)
		}
	}
	if _, ok := f.Get("analog-qpu-p9"); ok {
		t.Fatal("Get returned a device for an unknown ID")
	}
	// Distinct seeds: calibration drift decorrelates across partitions.
	clk.Advance(30 * time.Minute)
	c0 := f.Devices()[0].CalibrationSnapshot()
	c1 := f.Devices()[1].CalibrationSnapshot()
	if c0.RabiFactor == c1.RabiFactor && c0.DetuningOffset == c1.DetuningOffset {
		t.Fatal("partitions drifted identically; seeds not decorrelated")
	}
}

func TestFleetOfRejectsDuplicates(t *testing.T) {
	clk := simclock.New()
	a, _ := New(Config{Clock: clk, Seed: 1, ID: "dup"})
	b, _ := New(Config{Clock: clk, Seed: 2, ID: "dup"})
	if _, err := FleetOf(a, b); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := FleetOf(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := FleetOf(a, nil); err == nil {
		t.Fatal("nil device accepted")
	}
	f, err := FleetOf(a)
	if err != nil || len(f.Devices()) != 1 {
		t.Fatalf("FleetOf(a) = %v, %v", f, err)
	}
}

// TestFleetTaskListenerCarriesDeviceID checks the listener contract the
// daemon's fleet routing depends on: completions identify their partition.
func TestFleetTaskListenerCarriesDeviceID(t *testing.T) {
	clk := simclock.New()
	f, err := NewFleet(2, Config{Clock: clk, Seed: 5, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Task IDs are only unique within one device (each keeps its own
	// counter), so the device ID in the callback is the disambiguator —
	// key completions by (device, task).
	got := map[[2]string]bool{}
	for _, dev := range f.Devices() {
		dev.SetTaskListener(func(deviceID, taskID string, state TaskState) {
			if state == TaskCompleted {
				got[[2]string{deviceID, taskID}] = true
			}
		})
	}
	prog := testProgram(5)
	var tasks [2]string
	for i, dev := range f.Devices() {
		id, err := dev.Submit(prog)
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = id
	}
	if tasks[0] != tasks[1] {
		t.Fatalf("expected per-device task counters to collide (%q vs %q); the device-ID contract under test assumes it", tasks[0], tasks[1])
	}
	clk.Advance(time.Minute)
	for i, dev := range f.Devices() {
		if !got[[2]string{dev.ID(), tasks[i]}] {
			t.Fatalf("no completion recorded for task %s on %s (got %v)", tasks[i], dev.ID(), got)
		}
	}
}

// TestFleetGaugesKeepTheirDevice: the qpu_* gauges are one registry series
// per partition, labelled as their TSDB twins are, so a partition in
// maintenance reads 0 whichever partition wrote last.
func TestFleetGaugesKeepTheirDevice(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	db := telemetry.NewTSDB(0, 0)
	f, err := NewFleet(4, Config{Clock: clk, Seed: 5, Registry: reg, TSDB: db, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	f.Devices()[1].StartMaintenance()
	f.Devices()[3].RunQACheck() // a later emitter, and healthy
	for i, id := range f.IDs() {
		want := 1.0
		if i == 1 {
			want = 0
		}
		labels := telemetry.Labels{"device": id}
		if got := exposed(t, reg, fmt.Sprintf("qpu_up{device=%q}", id)); got != want {
			t.Errorf("registry qpu_up{device=%q} = %g, want %g", id, got, want)
		}
		if p, ok := db.Latest("qpu_up", labels); !ok || p.Value != want {
			t.Errorf("tsdb qpu_up{device=%q} = %v (%v), want %g", id, p.Value, ok, want)
		}
	}
	if n := strings.Count(reg.Expose(), "\nqpu_up{"); n != 4 {
		t.Errorf("scrape has %d qpu_up series, want 4:\n%s", n, reg.Expose())
	}
}

// TestSeriesAppearsWhenFirstWritten: binding creates a series, so the
// per-state task counters bind on first use — qpu_tasks_total{state="failed"}
// is off the scrape until a task fails.
func TestSeriesAppearsWhenFirstWritten(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	d, err := New(Config{Clock: clk, Seed: 3, Registry: reg, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	const failed = `qpu_tasks_total{state="failed"}`
	if _, err := d.Submit(testProgram(5)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second)
	if out := reg.Expose(); !strings.Contains(out, `qpu_tasks_total{state="completed"} 1`) || strings.Contains(out, failed) {
		t.Fatalf("after one completed task:\n%s", out)
	}
	// Validated as analog, turned digital before it runs: execution refuses it.
	bad := testProgram(5)
	if _, err := d.Submit(bad); err != nil {
		t.Fatal(err)
	}
	bad.Kind = qir.KindDigital
	clk.Advance(10 * time.Second)
	if out := reg.Expose(); !strings.Contains(out, failed+" 1") {
		t.Fatalf("after one failed task:\n%s", out)
	}
}
