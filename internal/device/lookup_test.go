package device

import (
	"testing"
	"time"

	"hpcqc/internal/simclock"
)

// FuzzTaskLookup: whatever string reaches the device as a task ID, every
// lookup either finds the task whose ID is that string or reads it as
// unknown — it never finds another task ("qpu-task-07" is not task 7) and
// never panics. The table holds tasks completed, forgotten, cancelled,
// running and queued, so the ring has a moved base, holes and a dropped
// prefix.
func FuzzTaskLookup(f *testing.F) {
	clk := simclock.New()
	d, err := New(Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	var ids []string
	for i := 0; i < 16; i++ {
		id, err := d.Submit(testProgram(10))
		if err != nil {
			f.Fatal(err)
		}
		ids = append(ids, id)
	}
	clk.Advance(95 * time.Second) // nine done, one running, six queued
	for i, id := range ids[:12] {
		switch {
		case i == 10:
			_ = d.Cancel(id)
		case i%3 != 2:
			d.Forget(id)
		}
	}
	live := map[string]bool{}
	for _, id := range d.TaskIDs() {
		live[id] = true
	}
	if len(live) < 8 || live["qpu-task-1"] || !live["qpu-task-16"] {
		f.Fatalf("fixture table holds %v: want forgotten, finished and queued tasks", live)
	}
	for _, id := range []string{"", "qpu-task-", "qpu-task-0", "qpu-task-3", "qpu-task-03", "qpu-task-003",
		"qpu-task-+3", "qpu-task--3", "qpu-task- 3", "qpu-task-3 ", "qpu-task-３", "qpu-task-٣", "qpu-task-1e1",
		"QPU-TASK-3", "job-3", "qpu-task-16", "qpu-task-17", "qpu-task-9223372036854775807",
		"qpu-task-9223372036854775808", "qpu-task-18446744073709551619", "qpu-task-999999999999999999",
		"qpu-task-1000000000000000003"} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		tk := d.task(id)
		if (tk != nil) != live[id] || tk != nil && tk.id != id {
			t.Fatalf("task(%q) = %v; the table holds it: %v", id, tk, live[id])
		}
		_, err := d.TaskStatus(id)
		_, werr := d.WaitTime(id)
		_, rerr := d.TaskResult(id)
		if (err == nil) != live[id] || (werr == nil) != live[id] || !live[id] && rerr == nil {
			t.Fatalf("%q: status %v, wait %v, result %v; the table holds it: %v", id, err, werr, rerr, live[id])
		}
	})
}
