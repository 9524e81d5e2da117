package loadgen

import (
	"strconv"
	"testing"

	"hpcqc/internal/daemon"
)

// FuzzAnalyzerJobID: whatever string an event carries as its job ID, the
// analyzer either resolves it to that job's own track, while the job is in
// flight, or ignores it — it never reaches another job's track ("job-07" is
// not job 7), never a terminal one, and never panics. The fixture's jobs are
// in flight, finished and shed.
func FuzzAnalyzerJobID(f *testing.F) {
	a := NewAnalyzer(nil)
	want := map[string]*jobTrack{}
	for n := 1; n <= 16; n++ {
		ev := daemon.JobEvent{Type: daemon.JobEventSubmitted, Job: daemon.Job{ID: "job-" + strconv.Itoa(n)}}
		if n%4 == 0 {
			ev.Type = daemon.JobEventRejected
		}
		a.Observe(ev)
		if ev.Type == daemon.JobEventSubmitted && n%3 != 0 {
			want[ev.Job.ID] = &a.chunks[0][n-1]
		}
		if n%3 == 0 {
			ev.Type, ev.Job.State = daemon.JobEventFinished, daemon.JobCompleted
			a.Observe(ev)
		}
	}
	if submitted, terminal := a.Counts(); submitted != 16 || submitted-terminal != len(want) {
		f.Fatalf("fixture counts %d submitted, %d terminal, want 16 and %d in flight", submitted, terminal, len(want))
	}
	for _, id := range []string{"", "job-", "job-0", "job-1", "job-01", "job-+1", "job--1", "job- 1", "job-1 ",
		"job-１", "job-١", "job-2", "job-4", "job-6", "job-16", "job-17", "JOB-1", "qpu-task-1",
		"job-9223372036854775807", "job-9223372036854775808", "job-18446744073709551617",
		"job-999999999999999999", "job-1000000000000000001"} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		if got := a.live(id); got != want[id] {
			t.Fatalf("live(%q) resolves slot %p, want %p", id, got, want[id])
		}
	})
}
