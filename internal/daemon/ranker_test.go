package daemon

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// legacyTies are the built-in orders as the pairwise comparators the linear
// scan takes — written out here, not derived from the rankers under test.
func legacyTies(served map[string]float64) map[string]func(a, b *sched.Item) bool {
	return map[string]func(a, b *sched.Item) bool{
		"fifo": nil, // push order
		"fair-share": func(a, b *sched.Item) bool {
			if ua, ub := served[a.Payload.(*Job).User], served[b.Payload.(*Job).User]; ua != ub {
				return ua < ub
			}
			return a.Enqueued < b.Enqueued
		},
		"shortest-first": sched.ShortestExpectedFirst,
	}
}

// TestComposedRankerMatchesScores holds every built-in order × priority
// combination's composed ranker (the indexed dispatch path) to the policies'
// public contract — PriorityPolicy.Score re-evaluated at each pop, ties to
// the order's comparator — on random backlogs with equal keys, missing
// hints, explicit and fallback deadlines, and growing per-user usage.
func TestComposedRankerMatchesScores(t *testing.T) {
	orders := []string{"fifo", "fair-share", "shortest-first"}
	for _, oname := range orders {
		for _, pname := range append(Priorities.Names(), "slo-urgency:deadline=90s", "edf:dev=0s") {
			oname, pname := oname, pname
			t.Run(oname+"/"+pname, func(t *testing.T) {
				order, err := NewOrder(oname)
				if err != nil {
					t.Fatal(err)
				}
				priority, err := NewPriority(pname)
				if err != nil {
					t.Fatal(err)
				}
				ranker, _ := composeRanker(order, priority)
				if ranker == nil {
					t.Fatal("built-in policies did not compose into a ranker")
				}
				rng := rand.New(rand.NewSource(7))
				users := make([]*Job, 5)
				for i := range users {
					users[i] = &Job{User: fmt.Sprintf("user%d", i)}
				}
				served := map[string]float64{}
				tie := legacyTies(served)[oname]
				indexed, linear := sched.NewClassQueue(), sched.NewClassQueue()
				now := time.Duration(0)
				for step, n := 0, 0; step < 3000; step++ {
					now += time.Duration(rng.Intn(3)) * time.Second
					if rng.Intn(5) < 3 {
						n++
						it := sched.Item{
							ID:          fmt.Sprintf("job-%d", n),
							Class:       sched.Class(rng.Intn(3)),
							Enqueued:    now - time.Duration(rng.Intn(3))*time.Second,
							ExpectedQPU: time.Duration(rng.Intn(4)) * 20 * time.Second,
							Payload:     users[rng.Intn(len(users))],
						}
						if rng.Intn(2) == 0 {
							it.Deadline = it.Enqueued + time.Duration(1+rng.Intn(5))*time.Minute
						}
						a, b := it, it
						if err := indexed.Push(&a); err != nil {
							t.Fatal(err)
						}
						if err := linear.Push(&b); err != nil {
							t.Fatal(err)
						}
						continue
					}
					got := indexed.PopRanked(ranker, served)
					at := now
					want := linear.PopByScore(func(it *sched.Item) float64 { return priority.Score(it, at) }, tie)
					if (got == nil) != (want == nil) || (got != nil && got.ID != want.ID) {
						t.Fatalf("step %d at %s: ranker popped %v, scores popped %v", step, now, got, want)
					}
					if got != nil {
						served[got.Payload.(*Job).User] += got.ExpectedQPU.Seconds()
					}
				}
			})
		}
	}
}

// opaqueOrder and opaquePriority hide a built-in policy behind the public
// interface alone, as the benchmark harness's timing decorators do: the
// daemon cannot compose a ranker and must dispatch through Pop / Score.
type opaqueOrder struct{ OrderPolicy }
type opaquePriority struct{ PriorityPolicy }

// TestWrappedPoliciesDispatchIdentically: the start order of a saturated
// single-partition backlog is the same whether the daemon dispatches through
// its composed ranker or — the policies wrapped — through the linear
// fallbacks.
func TestWrappedPoliciesDispatchIdentically(t *testing.T) {
	starts := func(t *testing.T, order OrderPolicy, priority PriorityPolicy) []string {
		t.Helper()
		clk := simclock.New()
		dev, err := device.New(device.Config{Clock: clk, Seed: 3, TimingOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		var started []string
		d, err := NewDaemon(Config{
			Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x", EnablePreemption: true,
			Order: order, Priority: priority,
			JobListener: func(ev JobEvent) {
				if ev.Type == JobEventStarted {
					started = append(started, ev.Job.ID)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		sessions := make([]*Session, 4)
		for i := range sessions {
			if sessions[i], err = d.OpenSession(fmt.Sprintf("user%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		progs := [][]byte{payload(t, 20), payload(t, 45), payload(t, 80)}
		for i := 0; i < 120; i++ {
			req := SubmitRequest{Program: progs[rng.Intn(len(progs))], Class: sched.Class(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				req.DeadlineSeconds = float64(60 * (1 + rng.Intn(8)))
			}
			if _, err := d.Submit(sessions[rng.Intn(len(sessions))].Token, req); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Duration(rng.Intn(12)) * time.Second)
		}
		clk.Advance(6 * time.Hour)
		if len(started) < 120 {
			t.Fatalf("only %d starts for 120 jobs", len(started))
		}
		return started
	}
	for _, oname := range []string{"fifo", "fair-share", "shortest-first"} {
		for _, pname := range Priorities.Names() {
			order, _ := NewOrder(oname)
			priority, _ := NewPriority(pname)
			want := starts(t, order, priority)
			for _, wrap := range []struct {
				name     string
				order    OrderPolicy
				priority PriorityPolicy
			}{
				{"wrapped-priority", order, opaquePriority{priority}},
				{"wrapped-order", opaqueOrder{order}, priority},
			} {
				if wrap.name == "wrapped-order" && pname != "constant" {
					continue // a custom order composes only with the constant priority
				}
				if got := starts(t, wrap.order, wrap.priority); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s/%s %s: start order differs from the composed-ranker run\n got %v\nwant %v",
						oname, pname, wrap.name, got, want)
				}
			}
		}
	}
}
