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
// shape benchmark/replaytrace.go still has: one ScheduleAt closure per record
// before the clock moves, no mid-run Release. It shares Replay's fixtures,
// drain loop and report stamping so that the arrival path is the only
// difference.
func replayPerRecord(t *testing.T, prep *preparedTrace, cfg ReplayConfig) *Report {
	t.Helper()
	r, err := newReplayRun(prep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.tr.Records {
		i := i
		r.clk.ScheduleAt(r.at(prep.tr.Records[i].AtUS), "loadgen-arrival", func() { r.submit(i) })
	}
	rep, err := r.drain()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReplayCursorMatchesPerRecordArrivals: the arrival cursor with its
// mid-run reclamation is byte-for-byte the per-record driver, across every
// order × priority, compressed and uncompressed arrivals, preemption on and
// off. The trace is long enough for several reclaims (2.5 k jobs, cadence
// 1 024) and overloaded on two partitions, so terminal records are pooled and
// reused while a backlog, preemptions and cross-partition requeues are live.
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
	prep, err := prepareTrace(tr)
	if err != nil {
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
					got, err := replayPrepared(prep, cfg)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					want := replayPerRecord(t, prep, cfg)
					if !bytes.Equal(marshalReport(t, got), marshalReport(t, want)) {
						t.Errorf("%s: cursor replay differs from the per-record driver\n cursor:     %s\n per-record: %s",
							cell, marshalReport(t, got), marshalReport(t, want))
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
