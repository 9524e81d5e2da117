package experiments

import (
	"slices"
	"testing"

	"hpcqc/internal/daemon"
	"hpcqc/internal/sched"
)

// lateTiesFIFO is FIFO with one mutation: between items queued at the same
// instant — equal rank — the later push pops first. It is a test-only
// order, registered here and nowhere in production.
type lateTiesFIFO struct{}

func (lateTiesFIFO) Name() string { return "fifo-late-ties" }
func (lateTiesFIFO) Pop(q *sched.ClassQueue, _ func() map[string]float64) *sched.Item {
	return q.PopBy(func(a, b *sched.Item) bool { return a.Enqueued <= b.Enqueued })
}

func init() { daemon.Orders.Add(func() daemon.OrderPolicy { return lateTiesFIFO{} }) }

// TestScheduleDigestsCatchTieFlip: flipping the tie-break between
// equal-rank pops under every FIFO run of the scheduling tables reorders
// identical jobs that arrive together — A5's dev flood, whose preempted
// victims also requeue at their original submit instant, and A2's balanced
// batch. Every cell of those two tables averages or maximizes over
// interchangeable jobs, so the table bytes, which is all scheduling.golden
// pins, cannot see the flip; the schedule digests of their runs do. (Table 1
// moves too: its jittered jobs are not interchangeable.)
func TestScheduleDigestsCatchTieFlip(t *testing.T) {
	const seed = 42
	ref := schedulingTables(t, seed, nil)
	mut := schedulingTables(t, seed, func(cfg *qpuConfig) {
		if cfg.scheduler == "" {
			cfg.scheduler = lateTiesFIFO{}.Name()
		}
	})
	blind := 0
	for i := range ref {
		sameText, sameRuns := ref[i].text == mut[i].text, slices.Equal(ref[i].digests, mut[i].digests)
		t.Logf("table %d: text unmoved %v, schedule digests unmoved %v", i, sameText, sameRuns)
		if sameText && !sameRuns {
			blind++
		}
	}
	const a5 = 2
	if ref[a5].text != mut[a5].text || slices.Equal(ref[a5].digests, mut[a5].digests) {
		t.Fatalf("A5 under the tie flip: want the table unmoved and its schedule digests moved\n%s", mut[a5].text)
	}
	t.Logf("%d tables hide the flip from their bytes; the schedule digests catch it in each", blind)
}
