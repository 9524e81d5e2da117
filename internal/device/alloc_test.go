package device

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/simclock"
)

// TestIdleFleetDoesNotAllocate: drift and QA tick on slots the device owns,
// so an idle fleet holds one clock event per periodic process and an hour of
// simulated time — 240 drift ticks and 4 QA checks here — allocates nothing.
func TestIdleFleetDoesNotAllocate(t *testing.T) {
	clk := simclock.New()
	fleet, err := NewFleet(4, Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("pending=%d}", 2*len(fleet.Devices())) // drift + QA per device
	if got := clk.String(); !strings.HasSuffix(got, want) {
		t.Fatalf("idle fleet clock reads %s, want %s", got, want)
	}
	if n := testing.AllocsPerRun(5, func() { clk.Advance(time.Hour) }); n != 0 {
		t.Fatalf("an idle hour allocates %.0f times", n)
	}
	if got := clk.String(); !strings.HasSuffix(got, want) {
		t.Fatalf("after idling the fleet clock reads %s, want %s", got, want)
	}
}

// TestTimingOnlyTaskAllocs: a timing-only task from Submit to Forget costs
// the task record, its ID, its exec callback and its Result — the Result's
// Counts and Metadata are shared, the exec event is embedded in the task, and
// the queue keeps its backing array.
func TestTimingOnlyTaskAllocs(t *testing.T) {
	clk := simclock.New()
	d, err := New(Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	p := testProgram(20)
	var done string
	d.SetTaskListener(func(_, id string, _ TaskState) { done = id })
	task := func() {
		id, err := d.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		for done != id {
			next, _ := clk.NextEventAt()
			clk.RunUntil(next)
		}
		d.Forget(id)
	}
	task() // warm the validation memo, the task map and the queue
	if n := testing.AllocsPerRun(200, task); n > 4 {
		t.Fatalf("a timing-only task allocates %.1f times, want ≤ 4", n)
	}
}

// TestTimingOnlyResultsShareMaps: timing-only results share their maps, so
// a degraded result must not leak its flag into the online results before
// and after it, and the shared Counts still encodes as {}.
func TestTimingOnlyResultsShareMaps(t *testing.T) {
	clk := simclock.New()
	d, err := New(Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		id, err := d.Submit(testProgram(5))
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Minute)
		res, err := d.TaskResult(id)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	const online = `{"counts":{},"metadata":{"backend":"analog-qpu","method":"timing-only"},"qpu_seconds":5}`
	before := run()
	d.InjectCalibrationError(0.2, 0)
	d.RunQACheck()
	degraded := run()
	d.Recalibrate()
	if after := run(); before != online || after != online ||
		degraded != `{"counts":{},"metadata":{"backend":"analog-qpu","degraded":"true","method":"timing-only"},"qpu_seconds":5}` {
		t.Fatalf("results read\n %s\n %s\n %s", before, degraded, after)
	}
}
