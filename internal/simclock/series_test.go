package simclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// seriesScenario drives one random schedule on a fresh clock and returns the
// log of everything that fired (with the clock state each callback saw). The
// arrivals are registered either as one ScheduleSeries or as n ScheduleAt
// calls; every other draw is identical, so the two logs must be too.
func seriesScenario(seed int64, useSeries bool) []string {
	rng := rand.New(rand.NewSource(seed))
	c := New()
	var log []string
	record := func(what string) {
		next, ok := c.next() // inside the world: callbacks cannot drive the clock
		log = append(log, fmt.Sprintf("%s now=%d pending=%d next=%d/%v", what, c.Now(), c.Pending(), next, ok))
	}
	// A coarse grid makes exact timestamp ties the common case.
	tick := func() time.Duration { return time.Duration(rng.Intn(40)) * time.Second }

	// Start away from zero so that part of the series lies in the past.
	c.Schedule(time.Duration(rng.Intn(10))*time.Second, "warp", func() {})
	c.Run(0)

	n := 1 + rng.Intn(30)
	times := make([]time.Duration, n)
	t := time.Duration(0)
	for i := range times {
		if rng.Intn(3) > 0 { // one in three repeats its predecessor's time
			t += time.Duration(rng.Intn(4)) * time.Second
		}
		times[i] = t
	}

	var others []*Event
	other := func(tag string, k int) {
		id := fmt.Sprintf("%s%d", tag, k)
		others = append(others, c.ScheduleAt(tick(), id, func() { record(id) }))
	}
	for k := 0; k < rng.Intn(8); k++ {
		other("before", k)
	}

	// What each arrival does besides logging: schedule at this very instant,
	// schedule a tie with a later arrival, or cancel a neighbour.
	acts := make([]int, n)
	for i := range acts {
		acts[i] = rng.Intn(5)
	}
	victims := make([]int, n)
	for i := range victims {
		victims[i] = rng.Intn(16)
	}
	arrive := func(i int) {
		record(fmt.Sprintf("arrival%d", i))
		switch acts[i] {
		case 0:
			c.Schedule(0, "same-instant", func() { record(fmt.Sprintf("child-now%d", i)) })
		case 1:
			c.ScheduleAt(times[(i+1+victims[i])%n], "tie", func() { record(fmt.Sprintf("child-tie%d", i)) })
		case 2:
			c.Cancel(others[victims[i]%len(others)])
		}
	}
	if useSeries {
		c.ScheduleSeries(n, "arrival", func(i int) time.Duration { return times[i] }, arrive)
	} else {
		for i := range times {
			i := i
			c.ScheduleAt(times[i], "arrival", func() { arrive(i) })
		}
	}
	record("registered")

	for k := 0; k < 1+rng.Intn(8); k++ {
		other("after", k)
	}
	c.Cancel(others[rng.Intn(len(others))])

	// Drain in bounded hops so RunUntil's deadline peek is exercised against
	// the series slot as well.
	for c.Pending() > 0 {
		c.RunUntil(c.Now() + 7*time.Second)
		record("hop")
	}
	return log
}

// TestScheduleSeriesMatchesScheduleAt is the cursor's contract: one re-arming
// slot fires exactly as n ScheduleAt calls made at the same instant would —
// under exact ties with events queued before and after it, events scheduled
// from inside callbacks, times in the past (the clamp), cancelled neighbours,
// and with NextEventAt/Pending read at every step.
func TestScheduleSeriesMatchesScheduleAt(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		want := seriesScenario(seed, false)
		got := seriesScenario(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: series fired %d log lines, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d:\n series:    %s\n reference: %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleSeriesEdges covers what the differential cannot: the empty
// series, one heap slot however long the series, and the stated behaviour
// when the non-decreasing precondition is broken.
func TestScheduleSeriesEdges(t *testing.T) {
	c := New()
	c.ScheduleSeries(0, "none", func(int) time.Duration { panic("at called on an empty series") }, func(int) {})
	if c.Pending() != 0 {
		t.Fatalf("empty series left %d pending", c.Pending())
	}

	const n = 1000
	maxSlots := 0
	c.ScheduleSeries(n, "long", func(i int) time.Duration { return time.Duration(i) * time.Second }, func(int) {
		if len(c.events) > maxSlots {
			maxSlots = len(c.events)
		}
	})
	if c.Pending() != n {
		t.Fatalf("Pending = %d, want %d", c.Pending(), n)
	}
	c.Run(0)
	if maxSlots != 1 || c.Pending() != 0 {
		t.Fatalf("series held %d heap slots at once (want 1), %d pending after the run", maxSlots, c.Pending())
	}

	var order []int
	times := []time.Duration{5 * time.Second, 3 * time.Second, 9 * time.Second}
	c = New()
	c.ScheduleSeries(len(times), "decreasing", func(i int) time.Duration { return times[i] }, func(i int) {
		order = append(order, i)
		if want := []time.Duration{5 * time.Second, 5 * time.Second, 9 * time.Second}[i]; c.Now() != want {
			t.Errorf("element %d fired at %s, want %s", i, c.Now(), want)
		}
	})
	c.Run(0)
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("decreasing series fired in order %v", order)
	}
}

// TestScheduleSeriesCallsAtInOrder pins what lets at be a stream cursor: at
// is called once per element, in index order — at(0) at registration, at(i)
// when element i-1 fires and before fn(i-1) runs — so two elements are the
// most a cursor ever holds.
func TestScheduleSeriesCallsAtInOrder(t *testing.T) {
	c := New()
	var log []string
	c.ScheduleSeries(3, "cursor", func(i int) time.Duration {
		log = append(log, fmt.Sprintf("at%d", i))
		return time.Duration(i) * time.Second
	}, func(i int) { log = append(log, fmt.Sprintf("fn%d", i)) })
	log = append(log, "registered")
	c.Run(0)
	if got, want := fmt.Sprint(log), "[at0 registered at1 fn0 at2 fn1 fn2]"; got != want {
		t.Fatalf("call order %s, want %s", got, want)
	}
}
