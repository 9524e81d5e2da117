// Package simclock provides a deterministic discrete-event simulation clock.
//
// Every time-dependent substrate in the stack (the QPU device model, the
// Slurm simulator, the second-level scheduler) runs against this clock, so
// scheduling experiments measure pure policy effects — QPU idle time, wait
// times by priority class — deterministically and orders of magnitude faster
// than wall clock. A 24-hour cluster trace simulates in milliseconds.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a scheduled callback. Callbacks run with the clock advanced to
// their timestamp and must not block.
type Event struct {
	At   time.Duration
	Name string
	Fn   func()

	seq    uint64  // tie-break: FIFO among equal timestamps
	index  int     // heap bookkeeping
	dead   bool    // cancelled
	series *series // non-nil: the re-arming slot of a ScheduleSeries
}

// series is the state behind ScheduleSeries: which element the slot holds and
// what the remaining ones need to take its place.
type series struct {
	i, n int
	at   func(i int) time.Duration
	fn   func(i int)
	seq0 uint64 // element i has tie-break sequence seq0+i
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// call New.
type Clock struct {
	mu      sync.Mutex
	now     time.Duration
	events  eventHeap
	nextSeq uint64
	// deferred counts the elements of live series that are not in the heap
	// yet: String reports them as pending, as if each had its own slot.
	deferred int
	// nowAtomic mirrors now (written only under mu) so Now() is a lock-free
	// load — it sits on every hot path (device status, span emission) and a
	// mutex round-trip per read is measurable at replay rates.
	nowAtomic atomic.Int64
}

// New returns a clock at time zero with no pending events.
func New() *Clock {
	return &Clock{}
}

// Now returns the current simulation time as an offset from the epoch.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.nowAtomic.Load())
}

// Schedule registers fn to run after delay. A negative delay is treated as
// zero (runs at the current instant, after already-queued events for that
// instant). It returns a handle usable with Cancel.
func (c *Clock) Schedule(delay time.Duration, name string, fn func()) *Event {
	e := &Event{Name: name, Fn: fn}
	c.Arm(e, delay)
	return e
}

// Arm queues a caller-owned event to fire e.Fn after delay, exactly where
// Schedule(delay, e.Name, e.Fn) would have queued a fresh one: same clamp, same
// tie-break sequence. The caller keeps ownership and may re-arm the event once
// it has fired or been cancelled — from inside its own Fn, say — which is how a
// periodic process runs on one slot instead of one allocation per tick. Arming
// an event that is still pending panics: the clock holds each event once.
func (c *Clock) Arm(e *Event, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.index >= 0 && e.index < len(c.events) && c.events[e.index] == e {
		panic("simclock: Arm of a pending event " + e.Name)
	}
	e.At, e.seq, e.dead = c.now+max(delay, 0), c.nextSeq, false
	c.nextSeq++
	heap.Push(&c.events, e)
}

// ScheduleAt registers fn at an absolute simulation time. Times in the past
// are clamped to now.
func (c *Clock) ScheduleAt(at time.Duration, name string, fn func()) *Event {
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	delay := at - now
	if delay < 0 {
		delay = 0
	}
	return c.Schedule(delay, name, fn)
}

// ScheduleSeries registers fn(0) … fn(n-1) at the absolute times at(0) ≤ at(1)
// ≤ … through one heap slot that re-arms itself as each element fires — O(1)
// clock memory for a series of any length, which is what lets a replay keep
// a million arrivals out of the heap. It is defined to be order-identical to
// n ScheduleAt calls made now, in index order: times in the past are clamped
// to the current instant, and the elements own a block of n consecutive
// tie-break sequence numbers reserved here, so against any other event — one
// queued before, one scheduled from inside a callback, an exact timestamp tie
// — element i fires where the i-th of those calls would have. NextEventAt and
// Pending read the same too. An at(i) below at(i-1) breaks the precondition
// and fires in index order, right after its predecessor. at is called once
// per element, in index order, outside the clock's lock: at(0) here, at(i)
// when element i-1 fires, just before fn(i-1) runs. So at may be a cursor —
// read element i from a stream when asked, and hold at most two elements,
// i-1 awaiting fn and i — rather than a pure function of i.
func (c *Clock) ScheduleSeries(n int, name string, at func(i int) time.Duration, fn func(i int)) {
	if n <= 0 {
		return
	}
	first := at(0)
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &series{n: n, at: at, fn: fn, seq0: c.nextSeq}
	c.nextSeq += uint64(n)
	c.deferred += n - 1
	heap.Push(&c.events, &Event{At: max(first, c.now), Name: name, seq: s.seq0, series: s})
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (c *Clock) Cancel(e *Event) {
	if e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.dead || e.index < 0 || e.index >= len(c.events) || c.events[e.index] != e {
		return
	}
	e.dead = true
	heap.Remove(&c.events, e.index)
}

// NextEventAt returns the timestamp of the earliest pending event. ok is
// false when no events are queued. Drivers that only need the simulation to
// reach quiescence (replay drains, benchmark harnesses) use it to jump the
// clock straight to the next scheduled instant instead of probing forward in
// fixed increments — same event order, so byte-identical outcomes, without
// firing the heap once per probe step.
func (c *Clock) NextEventAt() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].At, true
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (c *Clock) Step() bool {
	c.mu.Lock()
	if len(c.events) == 0 {
		c.mu.Unlock()
		return false
	}
	e := heap.Pop(&c.events).(*Event)
	if e.At > c.now {
		c.now = e.At
		c.nowAtomic.Store(int64(e.At))
	}
	c.mu.Unlock()
	if s := e.series; s != nil {
		// Re-arm before the callback runs: whatever fn(i) schedules must
		// find element i+1 queued ahead of it, as n separate events would be.
		// e.At already carries the clamp, so max with it keeps both the clamp
		// and index order.
		i := s.i
		if s.i++; s.i < s.n {
			e.At, e.seq = max(s.at(s.i), e.At), s.seq0+uint64(s.i)
			c.mu.Lock()
			c.deferred--
			heap.Push(&c.events, e)
			c.mu.Unlock()
		}
		s.fn(i)
	} else if !e.dead && e.Fn != nil {
		e.Fn()
	}
	return true
}

// Run fires events until the queue drains or maxEvents events have fired.
// It returns the number of events fired. maxEvents <= 0 means unlimited; the
// limit exists to bound accidental self-perpetuating event loops in tests.
func (c *Clock) Run(maxEvents int) int {
	fired := 0
	for maxEvents <= 0 || fired < maxEvents {
		if !c.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to exactly the deadline. Events scheduled beyond the deadline stay queued.
func (c *Clock) RunUntil(deadline time.Duration) int {
	fired := 0
	for {
		c.mu.Lock()
		if len(c.events) == 0 || c.events[0].At > deadline {
			if c.now < deadline {
				c.now = deadline
				c.nowAtomic.Store(int64(deadline))
			}
			c.mu.Unlock()
			return fired
		}
		c.mu.Unlock()
		if !c.Step() {
			return fired
		}
		fired++
	}
}

// Advance moves the clock forward by d, firing everything due in between.
func (c *Clock) Advance(d time.Duration) int {
	return c.RunUntil(c.Now() + d)
}

// String describes the clock state for debugging.
func (c *Clock) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("simclock{now=%s pending=%d}", c.now, len(c.events)+c.deferred)
}

// Seconds converts a float seconds value into the clock's duration unit,
// saturating instead of overflowing for very large values.
func Seconds(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	if s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}
