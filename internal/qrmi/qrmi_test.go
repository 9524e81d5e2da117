package qrmi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/emulator"
	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
)

func piPulseProgram(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("one", 1, 10))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

func TestEmulatorResourceLifecycle(t *testing.T) {
	r := NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1)
	if r.Target() != "emu-sv" {
		t.Fatalf("target = %s", r.Target())
	}
	md, err := r.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromMetadata(md)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "emu-sv" {
		t.Fatalf("spec name = %s", spec.Name)
	}
	// Task ops before acquire fail.
	if _, err := r.TaskStart([]byte("{}")); err != ErrNotAcquired {
		t.Fatalf("pre-acquire TaskStart err = %v", err)
	}
	tok, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := EncodeProgram(piPulseProgram(100))
	id, err := r.TaskStart(payload)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.TaskStatus(id)
	if err != nil || st != StateCompleted {
		t.Fatalf("status = %s, %v", st, err)
	}
	raw, err := r.TaskResult(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 100 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if p := res.Counts.Probability("1"); p < 0.95 {
		t.Fatalf("pi pulse P(1) = %g", p)
	}
	if err := r.Release(tok); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(tok); err == nil {
		t.Fatal("double release accepted")
	}
}

// blockingBackend is an emulator.Backend whose Run signals started, waits for
// release, and then fails with err or runs the wrapped backend.
type blockingBackend struct {
	emulator.Backend
	started, release chan struct{}
	err              error
}

func (b blockingBackend) Run(p *qir.Program, seed int64) (*qir.Result, error) {
	b.started <- struct{}{}
	<-b.release
	if b.err != nil {
		return nil, b.err
	}
	return b.Backend.Run(p, seed)
}

// TestEmulatorResourceStopMidRunHolds: a TaskStop that lands while another
// goroutine's TaskStart is inside the backend cancels the task, and the run's
// end, successful or not, leaves it cancelled.
func TestEmulatorResourceStopMidRunHolds(t *testing.T) {
	for _, runErr := range []error{nil, fmt.Errorf("backend failed")} {
		b := blockingBackend{emulator.NewSVBackend(emulator.SVConfig{}), make(chan struct{}), make(chan struct{}), runErr}
		r := NewEmulatorResource(b, 1)
		r.Acquire()
		payload, _ := EncodeProgram(piPulseProgram(10))
		started := make(chan string)
		go func() {
			id, err := r.TaskStart(payload)
			if err != nil {
				t.Error(err)
			}
			started <- id
		}()
		<-b.started
		const id = "emu-task-1"
		if st, err := r.TaskStatus(id); err != nil || st != StateRunning {
			t.Errorf("mid-run status = %s, %v; want running", st, err)
		}
		if err := r.TaskStop(id); err != nil {
			t.Errorf("mid-run TaskStop: %v", err)
		}
		close(b.release)
		if got := <-started; got != id {
			t.Fatalf("TaskStart returned %q, want %q", got, id)
		}
		if st, _ := r.TaskStatus(id); st != StateCancelled {
			t.Fatalf("run error %v: stopped task reads %s, want cancelled", runErr, st)
		}
		if _, err := r.TaskResult(id); err != ErrResultNotReady {
			t.Fatalf("run error %v: stopped task's result: %v", runErr, err)
		}
	}
}

func TestEmulatorResourceBadPayload(t *testing.T) {
	r := NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1)
	r.Acquire()
	id, err := r.TaskStart([]byte("not json"))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r.TaskStatus(id)
	if st != StateFailed {
		t.Fatalf("status = %s", st)
	}
	if _, err := r.TaskResult(id); err == nil {
		t.Fatal("failed task returned a result")
	}
}

func TestEmulatorResourceInvalidProgram(t *testing.T) {
	r := NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1)
	r.Acquire()
	// A structurally valid program the backend must reject (0 shots).
	p := piPulseProgram(100)
	p.Shots = 0
	payload, _ := EncodeProgram(p)
	id, _ := r.TaskStart(payload)
	st, _ := r.TaskStatus(id)
	if st != StateFailed {
		t.Fatalf("status = %s", st)
	}
}

func TestEmulatorResourceUnknownTask(t *testing.T) {
	r := NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1)
	if _, err := r.TaskStatus("ghost"); err == nil {
		t.Fatal("unknown status accepted")
	}
	if _, err := r.TaskResult("ghost"); err == nil {
		t.Fatal("unknown result accepted")
	}
	if err := r.TaskStop("ghost"); err == nil {
		t.Fatal("unknown stop accepted")
	}
}

func TestDeviceResourceLifecycle(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := NewDeviceResource(dev, clk)
	r.AutoAdvance = 10 * simclock.Seconds(1)

	if _, err := r.TaskStart([]byte("not json")); err != ErrNotAcquired {
		t.Fatalf("pre-acquire TaskStart err = %v, want ErrNotAcquired", err)
	}
	md, _ := r.Metadata()
	if md["kind"] != "qpu" || md["status"] != "online" {
		t.Fatalf("metadata = %v", md)
	}
	if _, err := SpecFromMetadata(md); err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(r, piPulseProgram(50), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 50 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if res.Metadata["method"] != "hardware" {
		t.Fatalf("metadata = %v", res.Metadata)
	}
}

func TestDeviceResourceMaintenanceBlocksAcquire(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 5})
	r := NewDeviceResource(dev, clk)
	dev.StartMaintenance()
	if _, err := r.Acquire(); err == nil {
		t.Fatal("acquire during maintenance accepted")
	}
}

// TestDeviceResourceForgetsOldestTask starts past the task bound, each task
// run to its end before the next: the device forgets the oldest ones, oldest
// first, and their IDs read as unknown tasks, while the oldest kept and the
// newest still answer.
func TestDeviceResourceForgetsOldestTask(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 5, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	r := NewDeviceResource(dev, clk)
	r.AutoAdvance = 10 * time.Second // one poll runs a 1-shot task to its end
	if _, err := r.Acquire(); err != nil {
		t.Fatal(err)
	}
	payload, _ := EncodeProgram(piPulseProgram(1))
	var ids []string
	for n := 0; n < emuTaskHistory+3; n++ {
		id, err := r.TaskStart(payload)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := r.TaskStatus(id); err != nil || st != StateCompleted {
			t.Fatalf("%s: %s, %v; want completed", id, st, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:3] {
		if _, err := r.TaskStatus(id); err == nil || !strings.Contains(err.Error(), "unknown task") {
			t.Fatalf("TaskStatus(%q) = %v, want unknown task", id, err)
		}
		if _, err := r.TaskResult(id); err == nil {
			t.Fatalf("TaskResult(%q) answered for a forgotten task", id)
		}
	}
	for _, id := range []string{ids[3], ids[len(ids)-1]} {
		if _, err := r.TaskResult(id); err != nil {
			t.Fatalf("TaskResult(%q): %v", id, err)
		}
	}
}

// TestDeviceResourceForgetsOnlyTerminalTasks: past the bound, a task still
// queued or running is not let go. 16 385 tasks are started on a clock that
// is not advanced, so all are outstanding and the ring holds one over the
// bound; the clock then runs them all to their end, and the next 16 384
// starts let go of every one, the device forgetting each.
func TestDeviceResourceForgetsOnlyTerminalTasks(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 5, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	r := NewDeviceResource(dev, clk)
	if _, err := r.Acquire(); err != nil {
		t.Fatal(err)
	}
	payload, _ := EncodeProgram(piPulseProgram(1))
	start := func() string {
		id, err := r.TaskStart(payload)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var held []string
	for range emuTaskHistory + 1 {
		held = append(held, start())
	}
	if n := r.started.Len(); n != emuTaskHistory+1 {
		t.Fatalf("ring holds %d tasks with all outstanding, want %d", n, emuTaskHistory+1)
	}
	for {
		if st, err := r.TaskStatus(held[len(held)-1]); err != nil || st == StateCompleted {
			break
		}
		clk.Advance(time.Hour)
	}
	for range emuTaskHistory {
		start()
	}
	for _, id := range held {
		if _, err := r.TaskStatus(id); err == nil || !strings.Contains(err.Error(), "unknown task") {
			t.Fatalf("TaskStatus(%q) = %v after the drain and %d more starts, want unknown task", id, err, emuTaskHistory)
		}
	}
	if n := r.started.Len(); n != emuTaskHistory {
		t.Fatalf("ring holds %d tasks, want %d", n, emuTaskHistory)
	}
}

// TestDeviceResourceConcurrentUse: goroutines acquire, start, poll and
// release on one qpu-direct resource at once (its value is under -race; make
// test-race runs it). Tokens, tasks and the clock are one world behind the
// clock's lock, and every task ends completed.
func TestDeviceResourceConcurrentUse(t *testing.T) {
	r, err := NewResource("qpu-direct", map[string]string{"seed": "3"})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := EncodeProgram(piPulseProgram(5))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				tok, err := r.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				id, err := r.TaskStart(payload)
				if err != nil {
					t.Error(err)
					return
				}
				st := StateQueued
				for polls := 0; !st.Terminal() && polls < 1000; polls++ {
					if st, err = r.TaskStatus(id); err != nil {
						t.Error(err)
						return
					}
				}
				if st != StateCompleted {
					t.Errorf("%s ended %s", id, st)
				}
				if err := r.Release(tok); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConfigFromEnviron(t *testing.T) {
	cfg := ConfigFromEnviron([]string{
		"QRMI_RESOURCE=qpu-onprem",
		"QRMI_RESOURCE_TYPE=emu-sv",
		"QRMI_SEED=42",
		"PATH=/usr/bin",
		"BROKEN",
	})
	if cfg["resource"] != "qpu-onprem" || cfg["resource_type"] != "emu-sv" || cfg["seed"] != "42" {
		t.Fatalf("cfg = %v", cfg)
	}
	if _, leaked := cfg["path"]; leaked {
		t.Fatal("non-QRMI var leaked")
	}
}

func TestMergeConfig(t *testing.T) {
	out := MergeConfig(
		map[string]string{"a": "1", "b": "1"},
		map[string]string{"b": "2"},
	)
	if out["a"] != "1" || out["b"] != "2" {
		t.Fatalf("merge = %v", out)
	}
}

func TestResolveResource(t *testing.T) {
	r, err := ResolveResource(map[string]string{
		"resource":      "dev-emu",
		"resource_type": "emu-sv",
		"seed":          "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Target() != "emu-sv" {
		t.Fatalf("target = %s", r.Target())
	}
	if _, err := ResolveResource(map[string]string{}); err == nil {
		t.Fatal("missing resource accepted")
	}
	if _, err := ResolveResource(map[string]string{"resource": "x"}); err == nil {
		t.Fatal("missing type accepted")
	}
	if _, err := ResolveResource(map[string]string{"resource": "x", "resource_type": "alien"}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestResolveMPSWithBondDim(t *testing.T) {
	r, err := ResolveResource(map[string]string{
		"resource":      "hpc-emu",
		"resource_type": "emu-mps",
		"mps_bond_dim":  "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Target(), "chi4") {
		t.Fatalf("target = %s", r.Target())
	}
}

func TestRegisterFactoryValidation(t *testing.T) {
	if err := RegisterFactory("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := RegisterFactory("custom-x", func(map[string]string) (Resource, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range KnownTypes() {
		if k == "custom-x" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered type not listed")
	}
}

func TestRunProgramAgainstEmulator(t *testing.T) {
	r := NewEmulatorResource(emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: 8}), 3)
	res, err := RunProgram(r, piPulseProgram(200), 10)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Counts.Probability("1"); p < 0.9 {
		t.Fatalf("P(1) = %g", p)
	}
}

func TestSpecFromMetadataErrors(t *testing.T) {
	if _, err := SpecFromMetadata(map[string]string{}); err == nil {
		t.Fatal("missing spec accepted")
	}
	if _, err := SpecFromMetadata(map[string]string{"spec": "junk"}); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestSameProgramAcrossBackends(t *testing.T) {
	// The Figure-1 portability property at the QRMI level: one payload,
	// three resources, consistent physics.
	p := piPulseProgram(2000)
	payload, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var decoded qir.Program
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}

	resources := []Resource{
		NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1),
	}
	resources = append(resources, NewEmulatorResource(emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: 8}), 2))
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 9})
	dr := NewDeviceResource(dev, clk)
	dr.AutoAdvance = 60 * simclock.Seconds(1)
	resources = append(resources, dr)

	for _, r := range resources {
		res, err := RunProgram(r, p, 1000)
		if err != nil {
			t.Fatalf("%s: %v", r.Target(), err)
		}
		prob := res.Counts.Probability("1")
		// The QPU carries SPAM noise, so the bar is loose but distinct
		// from noise floor.
		if prob < 0.9 {
			t.Fatalf("%s: P(1) = %g", r.Target(), prob)
		}
	}
}

func TestTaskStateTerminal(t *testing.T) {
	if StateQueued.Terminal() || StateRunning.Terminal() {
		t.Fatal("non-terminal states marked terminal")
	}
	if !StateCompleted.Terminal() || !StateFailed.Terminal() || !StateCancelled.Terminal() {
		t.Fatal("terminal states not marked")
	}
}

// TestEmulatorResourceTaskIDsAndSeeds: task N is emu-task-N, spelled one way
// only, and runs on seed+N — the result bytes a direct backend run on that
// seed gives.
func TestEmulatorResourceTaskIDsAndSeeds(t *testing.T) {
	backend := emulator.NewSVBackend(emulator.SVConfig{Noise: emulator.DefaultNoise()})
	r := NewEmulatorResource(backend, 40)
	r.Acquire()
	prog := piPulseProgram(200)
	payload, _ := EncodeProgram(prog)
	for n := 1; n <= 3; n++ {
		id, err := r.TaskStart(payload)
		if want := fmt.Sprintf("emu-task-%d", n); err != nil || id != want {
			t.Fatalf("task %d: ID %q, %v; want %q", n, id, err, want)
		}
		got, err := r.TaskResult(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := backend.Run(prog, 40+int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(res); !bytes.Equal(got, want) {
			t.Fatalf("%s: result\n%s\nwant the seed-%d run\n%s", id, got, 40+n, want)
		}
	}
	for _, id := range []string{"emu-task-01", "emu-task-+1", "emu-task-0", "emu-task-4", "qpu-task-1"} {
		if _, err := r.TaskStatus(id); err == nil {
			t.Fatalf("TaskStatus(%q) found a task", id)
		}
	}
}

// TestEmulatorResourceDropsOldestTask mints past the task bound: the oldest
// tasks go, oldest first, and read as unknown, while the oldest kept and the
// newest still answer.
func TestEmulatorResourceDropsOldestTask(t *testing.T) {
	r := NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1)
	r.Acquire()
	for n := 1; n < emuTaskHistory+3; n++ {
		if _, err := r.TaskStart([]byte("not json")); err != nil {
			t.Fatal(err)
		}
	}
	payload, _ := EncodeProgram(piPulseProgram(10))
	newest, err := r.TaskStart(payload)
	if want := fmt.Sprintf("emu-task-%d", emuTaskHistory+3); err != nil || newest != want {
		t.Fatalf("newest ID %q, %v; want %q", newest, err, want)
	}
	if n := r.tasks.Len(); n != emuTaskHistory {
		t.Fatalf("ring holds %d tasks, want %d", n, emuTaskHistory)
	}
	for _, id := range []string{"emu-task-1", "emu-task-3"} {
		if _, err := r.TaskStatus(id); err == nil || !strings.Contains(err.Error(), "unknown task") {
			t.Fatalf("TaskStatus(%q) = %v, want unknown task", id, err)
		}
		if _, err := r.TaskResult(id); err == nil {
			t.Fatalf("TaskResult(%q) answered for a dropped task", id)
		}
		if err := r.TaskStop(id); err == nil {
			t.Fatalf("TaskStop(%q) accepted a dropped task", id)
		}
	}
	if st, err := r.TaskStatus("emu-task-4"); err != nil || st != StateFailed {
		t.Fatalf("oldest kept task: %s, %v; want failed", st, err)
	}
	if st, err := r.TaskStatus(newest); err != nil || st != StateCompleted {
		t.Fatalf("newest task: %s, %v; want completed", st, err)
	}
	if _, err := r.TaskResult(newest); err != nil {
		t.Fatal(err)
	}
}
