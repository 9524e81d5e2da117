// Package simclock provides a deterministic discrete-event simulation clock.
//
// Every time-dependent substrate in the stack (the QPU device model, the
// Slurm simulator, the second-level scheduler) runs against this clock, so
// scheduling experiments measure pure policy effects — QPU idle time, wait
// times by priority class — deterministically and orders of magnitude faster
// than wall clock. A 24-hour cluster trace simulates in milliseconds.
//
// A clock and everything that runs on it — the devices, the daemon, its
// queues and policies — form one simulated world with one lock: the clock's.
// The drive methods (Step, Run, RunUntil, Advance, NextEventAt) take it once
// per event and hold it while the event's callback runs. Every other method
// assumes the caller is already inside the world: in a callback, between
// Lock and Unlock, or the only goroutine the world has.
package simclock

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a scheduled callback. Callbacks run with the clock advanced to
// their timestamp, inside the world (the clock's lock is held), and must not
// block or drive the clock.
type Event struct {
	At   time.Duration
	Name string
	Fn   func()

	seq    uint64  // tie-break: FIFO among equal timestamps
	index  int     // its place in the heap, -1 once out of it
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

// eventHeap is a binary min-heap of events; each event knows its index.
type eventHeap []*Event

// before is the heap order, a total one: earlier instant first, then FIFO.
func (e *Event) before(o *Event) bool {
	return e.At < o.At || (e.At == o.At && e.seq < o.seq)
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes the event at index i out of the heap.
func (h *eventHeap) remove(i int) {
	old, n := *h, len(*h)-1
	e := old[i]
	old[i], old[n], *h = old[n], nil, old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	e.index = -1
}

// up moves the event at index j rootwards past every parent it is before.
func (h eventHeap) up(j int) {
	e := h[j]
	for p := (j - 1) / 2; j > 0 && e.before(h[p]); j, p = p, (p-1)/2 {
		h[j], h[p].index = h[p], j
	}
	h[j], e.index = e, j
}

// down moves the event at index i leafwards past every child before it and
// reports whether it moved.
func (h eventHeap) down(i int) bool {
	e, start := h[i], i
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i], h[c].index = h[c], i
	}
	h[i], e.index = e, i
	return i > start
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// call New.
type Clock struct {
	// mu is the world's lock (see the package comment).
	mu sync.Mutex
	// entering counts the outside entries waiting in Lock. A drive method
	// yields after each event while one waits: a running goroutine wins every
	// race for a sync.Mutex it just released, for up to a millisecond, so a
	// request would otherwise wait behind a whole drain instead of one event.
	entering atomic.Int32
	now      time.Duration
	events   eventHeap
	nextSeq  uint64
	// deferred counts the elements of live series that are not in the heap
	// yet: String reports them as pending, as if each had its own slot.
	deferred int
}

// New returns a clock at time zero with no pending events.
func New() *Clock {
	return &Clock{}
}

// Lock enters the world from outside it — an HTTP handler, a resource
// adapter, a test goroutine — for one request; Unlock leaves it. Nothing
// inside the world takes another lock of the world's, so a callback or a
// listener must not call Lock, nor any drive method.
func (c *Clock) Lock() {
	c.entering.Add(1)
	c.mu.Lock()
	c.entering.Add(-1)
}

// Unlock leaves the world Lock entered.
func (c *Clock) Unlock() { c.mu.Unlock() }

// Now returns the current simulation time as an offset from the epoch.
func (c *Clock) Now() time.Duration {
	return c.now
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
	if e.index >= 0 && e.index < len(c.events) && c.events[e.index] == e {
		panic("simclock: Arm of a pending event " + e.Name)
	}
	e.At, e.seq = c.now+max(delay, 0), c.nextSeq
	c.nextSeq++
	c.events.push(e)
}

// ScheduleAt registers fn at an absolute simulation time. Times in the past
// are clamped to now.
func (c *Clock) ScheduleAt(at time.Duration, name string, fn func()) *Event {
	return c.Schedule(max(at-c.now, 0), name, fn)
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
// per element, in index order: at(0) here, at(i) when element i-1 fires, just
// before fn(i-1) runs. So at may be a cursor rather than a pure function of i:
// take element i from a source when asked — a stream, or records another
// goroutine decoded ahead — and hold at most two, i-1 awaiting fn and i.
func (c *Clock) ScheduleSeries(n int, name string, at func(i int) time.Duration, fn func(i int)) {
	if n <= 0 {
		return
	}
	first := at(0)
	s := &series{n: n, at: at, fn: fn, seq0: c.nextSeq}
	c.nextSeq += uint64(n)
	c.deferred += n - 1
	c.events.push(&Event{At: max(first, c.now), Name: name, seq: s.seq0, series: s})
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (c *Clock) Cancel(e *Event) {
	if e != nil && e.index >= 0 && e.index < len(c.events) && c.events[e.index] == e {
		c.events.remove(e.index)
	}
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
	return c.next()
}

// next is NextEventAt inside the world.
func (c *Clock) next() (time.Duration, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].At, true
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (c *Clock) Step() bool {
	defer c.yield() // after the unlock: deferred calls run last-in first-out
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fire()
}

// yield lets an entry waiting in Lock take the world the drive method has
// just released.
func (c *Clock) yield() {
	if c.entering.Load() > 0 {
		runtime.Gosched()
	}
}

// fire is Step inside the world.
func (c *Clock) fire() bool {
	if len(c.events) == 0 {
		return false
	}
	e := c.events[0]
	c.now = max(c.now, e.At)
	if s := e.series; s != nil {
		// Re-arm before the callback runs: whatever fn(i) schedules must
		// find element i+1 queued ahead of it, as n separate events would be.
		// e.At already carries the clamp, so max with it keeps both the clamp
		// and index order. The slot only moves later: it sifts down in place.
		i := s.i
		if s.i++; s.i < s.n {
			e.At, e.seq = max(s.at(s.i), e.At), s.seq0+uint64(s.i)
			c.deferred--
			c.events.down(0)
		} else {
			c.events.remove(0)
		}
		s.fn(i)
	} else {
		c.events.remove(0)
		if e.Fn != nil {
			e.Fn()
		}
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
	for c.fireBy(deadline) {
		fired++
	}
	return fired
}

// fireBy fires the earliest event due by deadline, in one hold of the lock,
// or, when none is, moves the clock to the deadline and reports false.
func (c *Clock) fireBy(deadline time.Duration) bool {
	defer c.yield()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 || c.events[0].At > deadline {
		c.now = max(c.now, deadline)
		return false
	}
	return c.fire()
}

// Advance moves the clock forward by d, firing everything due in between.
func (c *Clock) Advance(d time.Duration) int {
	c.mu.Lock()
	deadline := c.now + d
	c.mu.Unlock()
	return c.RunUntil(deadline)
}

// String describes the clock state for debugging.
func (c *Clock) String() string {
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
