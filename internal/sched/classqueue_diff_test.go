package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The differential test holds the indexed extraction (PopRanked) to the
// linear one (PopBy / PopByScore) for every order × priority combination the
// daemon builds: INV-Q1 in DESIGN §5. Orders and priorities are restated
// here twice, independently — as integer rank keys for the index, and as the
// float scores and pairwise comparators the linear scan has always taken —
// so neither side is derived from the other.

type diffOrder struct {
	name string
	rank Ranker // Lane and Ord only
	// tie builds the linear comparator over the served-usage map (nil: push
	// order).
	tie func(served map[string]float64) func(a, b *Item) bool
}

type diffPriority struct {
	name  string
	key   func(it *Item) int64                      // nil: constant
	score func(it *Item, now time.Duration) float64 // nil: constant
}

func diffOrders() []diffOrder {
	user := func(it *Item) string { return it.Payload.(string) }
	return []diffOrder{
		{name: "fifo"},
		{
			name: "fair-share",
			rank: Ranker{Lane: user, Ord: func(it *Item) [2]int64 { return [2]int64{int64(it.Enqueued)} }},
			tie: func(served map[string]float64) func(a, b *Item) bool {
				return func(a, b *Item) bool {
					if ua, ub := served[user(a)], served[user(b)]; ua != ub {
						return ua < ub
					}
					return a.Enqueued < b.Enqueued
				}
			},
		},
		{
			name: "shortest-first",
			rank: Ranker{Ord: ShortestExpectedKey},
			tie:  func(map[string]float64) func(a, b *Item) bool { return ShortestExpectedFirst },
		},
	}
}

func diffPriorities() []diffPriority {
	return []diffPriority{
		{name: "constant"},
		{
			name:  "age",
			key:   func(it *Item) int64 { return int64(it.Enqueued) },
			score: func(it *Item, now time.Duration) float64 { return (now - it.Enqueued).Seconds() },
		},
		{
			name: "edf",
			key: func(it *Item) int64 {
				if it.Deadline <= 0 {
					return math.MaxInt64
				}
				return int64(it.Deadline)
			},
			score: func(it *Item, _ time.Duration) float64 {
				if it.Deadline <= 0 {
					return -math.MaxFloat64
				}
				return -it.Deadline.Seconds()
			},
		},
		{
			name: "slo-urgency",
			key: func(it *Item) int64 {
				if it.Deadline <= 0 {
					return math.MaxInt64
				}
				return int64(it.Deadline - it.ExpectedQPU)
			},
			score: func(it *Item, now time.Duration) float64 {
				if it.Deadline <= 0 {
					return -math.MaxFloat64
				}
				return -(it.Deadline - now - it.ExpectedQPU).Seconds()
			},
		},
	}
}

func TestPopRankedMatchesLinearReference(t *testing.T) {
	for _, o := range diffOrders() {
		for _, p := range diffPriorities() {
			o, p := o, p
			t.Run(o.name+"/"+p.name, func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					runDiff(t, o, p, seed)
				}
			})
		}
	}
}

// runDiff drives one random operation sequence through two queues — one
// popped through the index, one through the linear scans — and compares
// them after every step.
func runDiff(t *testing.T, o diffOrder, p diffPriority, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranker := &Ranker{Pri: p.key, Lane: o.rank.Lane, Ord: o.rank.Ord}
	indexed, linear := NewClassQueue(), NewClassQueue()
	served := map[string]float64{}
	queued := map[string]Item{} // the model: what must be in both queues
	var popped []Item           // candidates for a requeue
	now := time.Duration(0)
	nextID := 0

	push := func(it Item) {
		a, b := it, it
		if err := indexed.Push(&a); err != nil {
			t.Fatal(err)
		}
		if err := linear.Push(&b); err != nil {
			t.Fatal(err)
		}
		queued[it.ID] = it
	}
	fresh := func() Item {
		nextID++
		it := Item{
			ID:    fmt.Sprintf("j%d", nextID),
			Class: Class(rng.Intn(3)),
			// A coarse grid makes equal keys common.
			Enqueued:    now - time.Duration(rng.Intn(4))*time.Second,
			ExpectedQPU: time.Duration(rng.Intn(5)) * 10 * time.Second, // 0 = no hint
			Payload:     fmt.Sprintf("user%d", rng.Intn(5)),
		}
		if rng.Intn(4) > 0 { // a quarter carry no deadline
			it.Deadline = it.Enqueued + time.Duration(1+rng.Intn(6))*30*time.Second
		}
		return it
	}
	popBoth := func() {
		var a, b *Item
		if rng.Intn(10) == 0 {
			// The daemon never mixes paths on one queue, but nothing forbids
			// it: a push-order pop leaves a flagged entry inside the index.
			a, b = indexed.Pop(), linear.Pop()
		} else {
			a = indexed.PopRanked(ranker, served)
			var tie func(x, y *Item) bool
			if o.tie != nil {
				tie = o.tie(served)
			}
			if p.score == nil {
				b = linear.PopBy(tie)
			} else {
				at := now
				b = linear.PopByScore(func(it *Item) float64 { return p.score(it, at) }, tie)
			}
		}
		if (a == nil) != (b == nil) {
			t.Fatalf("seed %d: indexed popped %v, linear popped %v", seed, a, b)
		}
		if a == nil {
			if len(queued) != 0 {
				t.Fatalf("seed %d: both queues empty with %d items outstanding", seed, len(queued))
			}
			return
		}
		if a.ID != b.ID {
			t.Fatalf("seed %d at %s: indexed popped %s, linear popped %s", seed, now, a.ID, b.ID)
		}
		it, ok := queued[a.ID]
		if !ok {
			t.Fatalf("seed %d: popped %s, which is not queued (removed items must not resurface)", seed, a.ID)
		}
		delete(queued, a.ID)
		popped = append(popped, it)
		// What the daemon does at completion: the owner's usage grows.
		served[a.Payload.(string)] += float64(1 + rng.Intn(3))
	}

	growing := true
	for step := 0; step < 4000; step++ {
		// Swing between deep backlogs and near-empty queues so the 4:1
		// compaction rule fires on the list, the oldest-heap and the index.
		if len(queued) > 300 {
			growing = false
		} else if len(queued) < 3 {
			growing = true
		}
		pushBias := 3
		if growing {
			pushBias = 7
		}
		switch op := rng.Intn(10); {
		case op < pushBias:
			push(fresh())
		case op == 9 && len(queued) > 0:
			// Remove an arbitrary queued item (cancel), then a missing one.
			ids := linear.Snapshot()
			id := ids[rng.Intn(len(ids))]
			if !indexed.Remove(id) || !linear.Remove(id) {
				t.Fatalf("seed %d: Remove(%s) missed a queued item", seed, id)
			}
			delete(queued, id)
			if indexed.Remove(id) || linear.Remove(id) {
				t.Fatalf("seed %d: Remove(%s) succeeded twice", seed, id)
			}
		case op == 8 && len(popped) > 0:
			// Preemption requeue: same ID and original Enqueued, new Item.
			i := rng.Intn(len(popped))
			it := popped[i]
			popped = append(popped[:i], popped[i+1:]...)
			if _, dup := queued[it.ID]; !dup {
				push(it)
			}
		default:
			popBoth()
		}
		now += time.Duration(rng.Intn(3)) * 500 * time.Millisecond

		if indexed.Len() != len(queued) || linear.Len() != len(queued) {
			t.Fatalf("seed %d: Len indexed %d linear %d, model %d", seed, indexed.Len(), linear.Len(), len(queued))
		}
		for c := ClassDev; c <= ClassProduction; c++ {
			if indexed.LenClass(c) != linear.LenClass(c) {
				t.Fatalf("seed %d: LenClass(%s) %d vs %d", seed, c, indexed.LenClass(c), linear.LenClass(c))
			}
		}
		ic, io, ih, iq := indexed.ClassLoads()
		lc, lo, lh, lq := linear.ClassLoads()
		if ic != lc || io != lo || ih != lh || iq != lq {
			t.Fatalf("seed %d: ClassLoads disagree: %v %v %v %v vs %v %v %v %v", seed, ic, io, ih, iq, lc, lo, lh, lq)
		}
		if a, b := indexed.Peek(), linear.Peek(); (a == nil) != (b == nil) || (a != nil && a.ID != b.ID) {
			t.Fatalf("seed %d: Peek disagrees: %v vs %v", seed, a, b)
		}
		if step%97 == 0 && !reflect.DeepEqual(indexed.Snapshot(), linear.Snapshot()) {
			t.Fatalf("seed %d: Snapshot disagrees", seed)
		}
	}
	for len(queued) > 0 {
		popBoth()
	}
	popBoth() // both empty
}

// TestPopRankedAdoptsLazily: the frozen OrderPolicy.Pop seam hands a policy
// a plain queue, so the first ranked pop must index whatever is already
// queued, a different ranker must re-index, and an empty ranker is Pop.
func TestPopRankedAdoptsLazily(t *testing.T) {
	q := NewClassQueue()
	for i, exp := range []time.Duration{50, 10, 30, 0, 20} {
		if err := q.Push(&Item{ID: fmt.Sprintf("i%d", i), Class: ClassDev, Enqueued: time.Duration(10 - i), ExpectedQPU: exp}); err != nil {
			t.Fatal(err)
		}
	}
	shortest := &Ranker{Ord: ShortestExpectedKey}
	if it := q.PopRanked(shortest, nil); it.ID != "i1" {
		t.Fatalf("shortest popped %s, want i1", it.ID)
	}
	// Pushed after adoption: must land in the index.
	if err := q.Push(&Item{ID: "i5", Class: ClassDev, ExpectedQPU: 5}); err != nil {
		t.Fatal(err)
	}
	if it := q.PopRanked(shortest, nil); it.ID != "i5" {
		t.Fatalf("shortest popped %s, want i5", it.ID)
	}
	youngestFirst := &Ranker{Pri: func(it *Item) int64 { return -int64(it.Enqueued) }}
	if it := q.PopRanked(youngestFirst, nil); it.ID != "i0" {
		t.Fatalf("re-adopted ranker popped %s, want i0 (Enqueued 10)", it.ID)
	}
	if it := q.PopRanked(&Ranker{}, nil); it.ID != "i2" {
		t.Fatalf("empty ranker popped %s, want i2 (push order)", it.ID)
	}
	if it := q.PopRanked(nil, nil); it.ID != "i3" {
		t.Fatalf("nil ranker popped %s, want i3 (push order)", it.ID)
	}
	if it := q.PopRanked(shortest, nil); it.ID != "i4" || q.Len() != 0 {
		t.Fatalf("last pop %s with %d left", it.ID, q.Len())
	}
	if q.PopRanked(shortest, nil) != nil {
		t.Fatal("empty queue returned an item")
	}
}

// TestPushRejectsUsedItem: extraction only flags an item, so a second Push of
// the same Item would bring its old entries back to life.
func TestPushRejectsUsedItem(t *testing.T) {
	q := NewClassQueue()
	it := &Item{ID: "a", Class: ClassDev}
	if err := q.Push(it); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(it); err == nil {
		t.Fatal("pushing a queued item twice succeeded")
	}
	q.Pop()
	if err := q.Push(it); err == nil {
		t.Fatal("re-pushing a popped item succeeded")
	}
	cp := Item{ID: it.ID, Class: it.Class}
	if err := q.Push(&cp); err != nil || q.Len() != 1 {
		t.Fatalf("fresh item with the same ID: err %v, len %d", err, q.Len())
	}
}

// TestCompactionBoundsEveryStructure: after a deep backlog drains through
// middle extractions, no structure keeps more than 4× the backlog (+64).
func TestCompactionBoundsEveryStructure(t *testing.T) {
	r := &Ranker{Ord: ShortestExpectedKey}
	for _, path := range []string{"ranked", "linear", "push-order"} {
		q := NewClassQueue()
		for i := 0; i < 5000; i++ {
			if err := q.Push(&Item{ID: fmt.Sprintf("i%d", i), Class: ClassDev, ExpectedQPU: time.Duration(1 + i*7919%500)}); err != nil {
				t.Fatal(err)
			}
		}
		q.PopRanked(r, nil) // adopt, so all three structures are in play
		for q.Len() > 10 {
			switch path {
			case "ranked":
				q.PopRanked(r, nil)
			case "linear":
				q.PopBy(ShortestExpectedFirst)
			default:
				q.Pop()
			}
		}
		c := &q.classes[ClassDev]
		if limit := 4*c.live + 64; len(c.items)-c.head > limit || len(c.oldest) > limit || c.ranked > limit {
			t.Fatalf("%s: live %d but list %d, oldest-heap %d, index %d", path, c.live, len(c.items)-c.head, len(c.oldest), c.ranked)
		}
	}
}

// TestEmptyLanesAreShed: a long-running queue sees users come and go. Once
// empty lanes outgrow the occupied ones the re-index drops them — from the
// lane list and the name map alike — and a shed user who returns gets a new
// lane, with the pop order still the linear reference's.
func TestEmptyLanesAreShed(t *testing.T) {
	user := func(it *Item) string { return it.Payload.(string) }
	ranker := &Ranker{Lane: user, Ord: func(it *Item) [2]int64 { return [2]int64{int64(it.Enqueued)} }}
	indexed, linear := NewClassQueue(), NewClassQueue()
	served := map[string]float64{}
	rng := rand.New(rand.NewSource(1))
	n := 0
	push := func(u int) {
		n++
		it := Item{ID: fmt.Sprintf("j%d", n), Class: ClassDev, Enqueued: time.Duration(n/3) * time.Second, Payload: fmt.Sprintf("user%d", u)}
		a, b := it, it
		if err := indexed.Push(&a); err != nil {
			t.Fatal(err)
		}
		if err := linear.Push(&b); err != nil {
			t.Fatal(err)
		}
	}
	pop := func() {
		t.Helper()
		a := indexed.PopRanked(ranker, served)
		b := linear.PopBy(func(x, y *Item) bool {
			if ux, uy := served[user(x)], served[user(y)]; ux != uy {
				return ux < uy
			}
			return x.Enqueued < y.Enqueued
		})
		if a == nil || b == nil || a.ID != b.ID {
			t.Fatalf("indexed popped %v, linear popped %v", a, b)
		}
		served[user(a)] += float64(1 + rng.Intn(3))
	}
	c := &indexed.classes[ClassDev]
	checkLanes := func(when string) {
		t.Helper()
		if len(c.byLane) != len(c.lanes) {
			t.Fatalf("%s: %d lanes listed, %d named", when, len(c.lanes), len(c.byLane))
		}
		for _, ln := range c.lanes {
			if c.byLane[ln.name] != ln {
				t.Fatalf("%s: lane %q is listed but not the one its name maps to", when, ln.name)
			}
		}
	}

	// 600 one-shot users, each with one job, drained down to a handful.
	const oneShots = 600
	for u := 0; u < oneShots; u++ {
		push(u)
	}
	for indexed.Len() > 5 {
		pop()
	}
	checkLanes("after the drain")
	if len(c.lanes) >= oneShots/2 {
		t.Fatalf("%d lanes kept for %d queued items: empty lanes were not shed", len(c.lanes), indexed.Len())
	}
	// Shed users return alongside kept and brand-new ones.
	for i := 0; i < 400; i++ {
		push(rng.Intn(2 * oneShots))
		if i%3 == 0 {
			pop()
		}
	}
	checkLanes("after the second wave")
	for indexed.Len() > 0 {
		pop()
	}
	if linear.Len() != 0 {
		t.Fatalf("indexed queue empty with %d items left in the linear one", linear.Len())
	}
	checkLanes("at the end")
}
