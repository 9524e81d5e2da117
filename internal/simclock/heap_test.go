package simclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent is an event of refClock, the reference model of the clock's queue:
// a container/heap of (at, seq) with every ScheduleSeries element an event of
// its own, as ScheduleSeries is defined to behave.
type refEvent struct {
	at    time.Duration
	seq   uint64
	id    string
	index int // -1 when not queued
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h, e.index = old[:len(old)-1], -1
	return e
}

type refClock struct {
	now   time.Duration
	seq   uint64
	queue refHeap
	fired []string
}

func (c *refClock) arm(e *refEvent, delay time.Duration) {
	e.at, e.seq = c.now+max(delay, 0), c.seq
	c.seq++
	heap.Push(&c.queue, e)
}

func (c *refClock) cancel(e *refEvent) {
	if e.index >= 0 {
		heap.Remove(&c.queue, e.index)
	}
}

func (c *refClock) next() (time.Duration, bool) {
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].at, true
}

// fireBy pops and logs the earliest event due by deadline.
func (c *refClock) fireBy(deadline time.Duration) bool {
	if len(c.queue) == 0 || c.queue[0].at > deadline {
		return false
	}
	e := heap.Pop(&c.queue).(*refEvent)
	c.now = max(c.now, e.at)
	c.fired = append(c.fired, e.id)
	return true
}

// TestEventHeapMatchesReference: random mixes of Schedule, Arm, Cancel,
// ScheduleSeries, Step and RunUntil on the clock and on refClock fire the same
// events in the same order, with the same NextEventAt and Now after every
// operation. Coarse times make exact ties common, so the seq tie-break is
// exercised as hard as the time order.
func TestEventHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := New(), &refClock{}
		var fired []string
		tick := func() time.Duration { return time.Duration(rng.Intn(12)-2) * time.Second }

		// handles pairs each clock event the test may cancel or re-arm with
		// its twin in the model; owned are caller-owned slots for Arm.
		type handle struct {
			e *Event
			r *refEvent
		}
		var handles []handle
		owned := make([]handle, 3)
		for k := range owned {
			id := fmt.Sprintf("owned%d", k)
			owned[k] = handle{&Event{Name: id, Fn: func() { fired = append(fired, id) }, index: -1}, &refEvent{id: id, index: -1}}
		}
		series := 0
		for op := 0; op < 120; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				id, delay := fmt.Sprintf("ev%d", op), tick()
				e := c.Schedule(delay, id, func() { fired = append(fired, id) })
				r := &refEvent{id: id}
				ref.arm(r, delay)
				handles = append(handles, handle{e, r})
			case k == 3:
				h := owned[rng.Intn(len(owned))]
				if h.r.index < 0 { // arming a pending event panics
					delay := tick()
					c.Arm(h.e, delay)
					ref.arm(h.r, delay)
					handles = append(handles, h)
				}
			case k == 4 && len(handles) > 0:
				h := handles[rng.Intn(len(handles))]
				c.Cancel(h.e)
				ref.cancel(h.r)
			case k == 5:
				n, at := 1+rng.Intn(8), c.Now()+tick()
				times := make([]time.Duration, n)
				for i := range times {
					at += time.Duration(rng.Intn(3)) * time.Second
					times[i] = at
				}
				tag := fmt.Sprintf("series%d.", series)
				series++
				c.ScheduleSeries(n, tag, func(i int) time.Duration { return times[i] },
					func(i int) { fired = append(fired, tag+fmt.Sprint(i)) })
				for i, at := range times {
					ref.arm(&refEvent{id: tag + fmt.Sprint(i)}, at-ref.now)
				}
			case k < 8:
				c.Step()
				ref.fireBy(1<<63 - 1)
			default:
				deadline := c.Now() + time.Duration(rng.Intn(6))*time.Second
				c.RunUntil(deadline)
				for ref.fireBy(deadline) {
				}
				ref.now = max(ref.now, deadline)
			}
			gotAt, gotOK := c.NextEventAt()
			wantAt, wantOK := ref.next()
			if !slices.Equal(fired, ref.fired) || gotAt != wantAt || gotOK != wantOK || c.Now() != ref.now {
				t.Fatalf("seed %d, op %d: clock fired %v, next %v/%v, now %v;\nreference fired %v, next %v/%v, now %v",
					seed, op, fired, gotAt, gotOK, c.Now(), ref.fired, wantAt, wantOK, ref.now)
			}
		}
		for c.Step() {
		}
		for ref.fireBy(1<<63 - 1) {
		}
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("seed %d, drained: clock fired %v, reference %v", seed, fired, ref.fired)
		}
	}
}
