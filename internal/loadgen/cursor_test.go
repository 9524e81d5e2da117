package loadgen

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/workload"
)

// replayPerRecord is the reference driver the arrival cursor replaced, in the
// shape benchmark/replaytrace.go still has: the whole trace in memory, one
// ScheduleAt closure per record before the clock moves, the clock run
// straight to max(horizon, last arrival + 1µs), no mid-run Release. It
// shares Replay's fixtures, submit path, drain loop and report stamping so
// that the arrival path is the only difference.
func replayPerRecord(t *testing.T, tr *Trace, cfg ReplayConfig) *Report {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := newReplayRun(tr.Header, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		rec := &tr.Records[i]
		r.clk.ScheduleAt(r.at(rec.AtUS), "loadgen-arrival", func() { r.submit(rec) })
	}
	horizon := r.at(tr.Header.HorizonUS)
	if n := len(tr.Records); n > 0 {
		if last := r.at(tr.Records[n-1].AtUS); last >= horizon {
			horizon = last + time.Microsecond
		}
	}
	r.clk.RunUntil(horizon)
	if r.err != nil {
		t.Fatal(r.err)
	}
	rep, err := r.drain(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReplayCursorMatchesPerRecordArrivals: the arrival cursor with its
// mid-run reclamation — over the in-memory trace and streamed from its file —
// is byte-for-byte the per-record driver, across every order × priority,
// compressed and uncompressed arrivals, preemption on and off. The trace is
// long enough for several reclaims (2.5 k jobs, cadence 1 024) and
// overloaded on two partitions, so terminal records are pooled and reused
// while a backlog, preemptions and cross-partition requeues are live.
func TestReplayCursorMatchesPerRecordArrivals(t *testing.T) {
	tr, err := Generate(Config{
		Seed:      23,
		Horizon:   6 * time.Hour,
		Process:   &Poisson{RatePerHour: 420},
		Deadlines: workload.DefaultDeadlines(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 2*reclaimEvery {
		t.Fatalf("trace has %d jobs: too short for the cursor to reclaim mid-run", len(tr.Records))
	}
	var file bytes.Buffer
	if err := tr.Write(&file); err != nil {
		t.Fatal(err)
	}
	preempted := false
	for _, scheduler := range daemon.Orders.Names() {
		for _, priority := range daemon.Priorities.Names() {
			for _, rate := range []float64{1, 2.5} {
				for _, noPreempt := range []bool{false, true} {
					cfg := ReplayConfig{Devices: 2, Scheduler: scheduler, Priority: priority, Seed: 5,
						RateScale: rate, DisablePreemption: noPreempt}
					cell := fmt.Sprintf("%s/%s rate=%g preemption-off=%v", scheduler, priority, rate, noPreempt)
					got, err := Replay(tr, cfg)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					want := replayPerRecord(t, tr, cfg)
					if !bytes.Equal(marshalReport(t, got), marshalReport(t, want)) {
						t.Errorf("%s: cursor replay differs from the per-record driver\n cursor:     %s\n per-record: %s",
							cell, marshalReport(t, got), marshalReport(t, want))
					}
					streamed, err := ReplayReader(bytes.NewReader(file.Bytes()), cfg)
					if err != nil {
						t.Fatalf("%s: streamed: %v", cell, err)
					}
					if !bytes.Equal(marshalReport(t, streamed), marshalReport(t, want)) {
						t.Errorf("%s: streamed replay differs from the per-record driver\n streamed:   %s\n per-record: %s",
							cell, marshalReport(t, streamed), marshalReport(t, want))
					}
					if got.Completed != len(tr.Records) {
						t.Errorf("%s: %d of %d jobs completed", cell, got.Completed, len(tr.Records))
					}
					preempted = preempted || got.Preemptions > 0
				}
			}
		}
	}
	if !preempted {
		t.Fatal("no cell preempted: the trace does not exercise requeues")
	}
}
