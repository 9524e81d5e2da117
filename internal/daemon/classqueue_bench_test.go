package daemon

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"hpcqc/internal/sched"
)

// popCells are the dispatch paths BenchmarkClassQueuePop walks: one per kind
// of rank — push order, a static order key, a static priority key, and the
// laned order whose weights move between pops.
var popCells = []struct{ name, order, priority string }{
	{"fifo", "fifo", "constant"},
	{"shortest-first", "shortest-first", "constant"},
	{"slo-urgency", "fifo", "slo-urgency"},
	{"fair-share", "fair-share", "constant"},
}

// popCycle fills a queue with depth dev-class items and returns a function
// that performs one pop+push cycle per spare item through the policies'
// dispatch entry point — OrderPolicy.Pop under the constant priority, the
// composed ranker otherwise — so the depth holds while it runs. Items carry
// what every rank reads: a duration hint, a deadline, an owner out of eight.
func popCycle(tb testing.TB, order, priority string, depth int) (cycle func(spare []sched.Item)) {
	tb.Helper()
	o, err := NewOrder(order)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPriority(priority)
	if err != nil {
		tb.Fatal(err)
	}
	ranker, _ := composeRanker(o, p)
	served := map[string]float64{}
	for i := 0; i < 8; i++ {
		served["user"+strconv.Itoa(i)] = float64(i * 100)
	}
	usage := func() map[string]float64 { return served }
	q := sched.NewClassQueue()
	fill := make([]sched.Item, depth)
	fillItems(fill, 0)
	for i := range fill {
		if err := q.Push(&fill[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return func(spare []sched.Item) {
		for i := range spare {
			var it *sched.Item
			if priority == "constant" {
				it = o.Pop(q, usage)
			} else {
				it = q.PopRanked(ranker, served)
			}
			if it == nil {
				tb.Fatal("queue ran dry")
			}
			_ = q.Push(&spare[i])
		}
	}
}

var benchUsers = func() []*Job {
	users := make([]*Job, 8)
	for i := range users {
		users[i] = &Job{User: "user" + strconv.Itoa(i)}
	}
	return users
}()

// fillItems writes fresh queue items numbered from base.
func fillItems(items []sched.Item, base int) {
	for k := range items {
		i := base + k
		items[k] = sched.Item{
			ID: "job", Class: sched.ClassDev, Enqueued: time.Duration(i) * time.Second,
			ExpectedQPU: time.Duration(10+i*7919%500) * time.Second,
			Deadline:    time.Duration(i)*time.Second + time.Hour,
			Payload:     benchUsers[i%len(benchUsers)],
		}
	}
}

// BenchmarkClassQueuePop measures one dispatch — a pop and the push that
// restores the depth — at backlog depths 10, 10³ and 10⁵. ROADMAP item 1's bar
// is ns/op within 2× between depth 10³ and 10⁵ and 0 allocs/op; shortest-first
// misses the first (≈2.5×, EXPERIMENTS.md h-backlog-flat), so benchdiff's
// popFlatness rule gates these numbers at 4×, and at 0 allocs/op (as does
// TestClassQueuePopAllocFree).
func BenchmarkClassQueuePop(b *testing.B) {
	for _, cell := range popCells {
		for _, depth := range []int{10, 1000, 100000} {
			b.Run(fmt.Sprintf("%s/depth=%d", cell.name, depth), func(b *testing.B) {
				cycle := popCycle(b, cell.order, cell.priority, depth)
				// Fresh items come in chunks made off the clock: an Item cannot
				// be pushed twice (nor its memory reused while a slow-ranked
				// one may still be queued), and b.N of them would not fit.
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; {
					b.StopTimer()
					spare := make([]sched.Item, min(1<<16, b.N-done))
					fillItems(spare, depth+done)
					b.StartTimer()
					cycle(spare)
					done += len(spare)
				}
			})
		}
	}
}

// TestClassQueuePopAllocFree: at a steady depth no dispatch path allocates —
// no per-pop closure, usage-map copy or lane churn.
func TestClassQueuePopAllocFree(t *testing.T) {
	for _, cell := range popCells {
		for _, depth := range []int{10, 1000} {
			cycle := popCycle(t, cell.order, cell.priority, depth)
			const runs, perRun = 50, 200
			spare := make([]sched.Item, (runs+1)*perRun)
			fillItems(spare, depth)
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				cycle(spare[next : next+perRun])
				next += perRun
			})
			if allocs > 2 { // slices doubling as they slide, amortized over 200 cycles
				t.Errorf("%s depth %d: %.0f allocations per %d pop+push cycles, want none per cycle", cell.name, depth, allocs, perRun)
			}
		}
	}
}
