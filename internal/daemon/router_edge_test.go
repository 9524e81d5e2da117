package daemon

import (
	"strings"
	"testing"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
)

// TestLeastLoadedTieBreakDeterminism: equal loads must always resolve to the
// lowest fleet index, for any permutation of equally-loaded partitions —
// routing decisions must be reproducible run to run.
func TestLeastLoadedTieBreakDeterminism(t *testing.T) {
	ll := NewLeastLoadedRouter()
	even := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline, Queued: 2},
		{ID: "p1", Index: 1, Status: device.StatusOnline, Queued: 2},
		{ID: "p2", Index: 2, Status: device.StatusOnline, Queued: 2},
	}
	for i := 0; i < 10; i++ {
		if idx := ll.Pick(&Job{}, even); idx != 0 {
			t.Fatalf("pick %d: equal loads resolved to %d, want 0", i, idx)
		}
	}
	// Busy counts as one unit of load: queued=1 ties with busy+queued=0.
	mixed := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline, Queued: 1},
		{ID: "p1", Index: 1, Status: device.StatusOnline, Busy: true},
	}
	if idx := ll.Pick(&Job{}, mixed); idx != 0 {
		t.Fatalf("queued=1 vs busy tie resolved to %d, want 0", idx)
	}
}

// TestClassAffinitySaturationFallback: a non-production job whose home
// partition is saturated (busy with backlog) spills to an idle partition —
// but never onto partition 0, and production never spills at all.
func TestClassAffinitySaturationFallback(t *testing.T) {
	ca := NewClassAffinityRouter()
	infos := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline},                        // production home, idle
		{ID: "p1", Index: 1, Status: device.StatusOnline, Busy: true, Queued: 3}, // test home, saturated
		{ID: "p2", Index: 2, Status: device.StatusOnline},                        // dev home, idle
		{ID: "p3", Index: 3, Status: device.StatusOnline, Busy: true},            // spare, busy but no backlog
	}
	// Test's home is saturated; the idle spill target is p2 (never p0, even
	// though p0 is idle too).
	if idx := ca.Pick(&Job{Class: sched.ClassTest}, infos); idx != 2 {
		t.Fatalf("saturated test home spilled to %d, want 2", idx)
	}
	// Merely busy (no backlog) is not saturation: dev stays home on p2 once
	// it is only busy.
	infos[2].Busy = true
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, infos); idx != 2 {
		t.Fatalf("busy-but-unsaturated dev home = %d, want 2", idx)
	}
	// Saturate dev's home with every alternative non-zero: no idle target
	// means no spill.
	infos[2].Queued = 4
	infos[0].Busy = true
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, infos); idx != 2 {
		t.Fatalf("saturated dev home with no idle target = %d, want 2", idx)
	}
	// Free p3: dev now spills there.
	infos[3].Busy = false
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, infos); idx != 3 {
		t.Fatalf("saturated dev home with idle p3 = %d, want 3", idx)
	}
	// Production never spills, however saturated its home.
	infos[0].Queued = 10
	if idx := ca.Pick(&Job{Class: sched.ClassProduction}, infos); idx != 0 {
		t.Fatalf("saturated production home = %d, want 0 (production never spills)", idx)
	}
	// Spill skips maintenance partitions.
	infos[3].Status = device.StatusMaintenance
	infos[2].Busy = true
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, infos); idx != 2 {
		t.Fatalf("dev spill targeted maintenance partition: picked %d, want 2", idx)
	}
}

// TestPinnedSubmitUnknownPartition: pinning a submission to a partition the
// fleet does not have must fail fast with the valid IDs in the error, and
// must leave the fleet as it was.
func TestPinnedSubmitUnknownPartition(t *testing.T) {
	env := newFleetEnv(t, 2, nil)
	ids := env.fleet.IDs()
	s, _ := env.d.OpenSession("alice")
	_, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev, Device: "no-such-partition"})
	if err == nil {
		t.Fatal("submit to unknown partition accepted")
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not list valid partition %s", err, id)
		}
	}
	// A subsequent unpinned submit still sees an even fleet and lands on p0.
	j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	if j.Device != ids[0] {
		t.Fatalf("post-error submit routed to %s, want %s", j.Device, ids[0])
	}
}
