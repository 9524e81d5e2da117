package simclock

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// armScenario drives one random schedule on a fresh clock and returns the log
// of everything that fired, with the clock state each callback saw. Periodic
// processes re-arm one owned event per tick when useArm is set and Schedule a
// fresh event per tick when it is not; every draw is made up front, so the two
// logs must be identical.
func armScenario(seed int64, useArm bool) []string {
	rng := rand.New(rand.NewSource(seed))
	c := New()
	var log []string
	record := func(what string) {
		next, ok := c.next() // inside the world: callbacks cannot drive the clock
		log = append(log, fmt.Sprintf("%s now=%d pending=%d next=%d/%v", what, c.Now(), c.Pending(), next, ok))
	}
	// A coarse grid makes exact timestamp ties the common case.
	tick := func() time.Duration { return time.Duration(rng.Intn(6)) * time.Second }

	type process struct {
		slot   Event  // the owned event (Arm build)
		handle *Event // the current one-shot (Schedule build)
		live   bool   // queued and not yet fired or cancelled
		fired  int
		period time.Duration
		acts   []int // what each tick does besides re-arming
		delays []time.Duration
		victim []int
	}
	procs := make([]*process, 1+rng.Intn(4))
	arm := func(p *process, delay time.Duration) {
		p.live = true
		if useArm {
			c.Arm(&p.slot, delay)
		} else {
			p.handle = c.Schedule(delay, p.slot.Name, p.slot.Fn)
		}
	}
	cancel := func(p *process) {
		p.live = false
		if useArm {
			c.Cancel(&p.slot)
		} else {
			c.Cancel(p.handle)
		}
	}
	for k := range procs {
		p := &process{period: time.Duration(1+rng.Intn(4)) * time.Second}
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			p.acts = append(p.acts, rng.Intn(5))
			p.delays = append(p.delays, tick())
			p.victim = append(p.victim, rng.Intn(len(procs)))
		}
		procs[k] = p
		name := fmt.Sprintf("proc%d", k)
		p.slot = Event{Name: name, Fn: func() {
			p.live = false
			i := p.fired
			p.fired++
			record(fmt.Sprintf("%s tick%d", name, i))
			switch p.acts[i] {
			case 0: // a child at this very instant, queued before the re-arm
				c.Schedule(0, "child", func() { record(fmt.Sprintf("%s child-now%d", name, i)) })
			case 1: // a child that ties with a later tick
				defer c.Schedule(p.delays[i], "child", func() { record(fmt.Sprintf("%s child-tie%d", name, i)) })
			case 2: // cancel another process mid-period and re-arm it elsewhere
				if q := procs[p.victim[i]]; q != p && q.live {
					cancel(q)
					arm(q, p.delays[i])
				}
			}
			if p.fired < len(p.acts) {
				arm(p, p.period)
			}
		}}
	}

	for k := 0; k < rng.Intn(6); k++ {
		id := fmt.Sprintf("before%d", k)
		c.Schedule(tick(), id, func() { record(id) })
	}
	for _, p := range procs {
		if len(p.acts) > 0 {
			arm(p, tick())
		}
	}
	record("registered")
	for k := 0; k < rng.Intn(6); k++ {
		id := fmt.Sprintf("after%d", k)
		c.Schedule(tick(), id, func() { record(id) })
	}

	// Drain in bounded hops so RunUntil's deadline peek sees the owned slots.
	for c.Pending() > 0 {
		c.RunUntil(c.Now() + 3*time.Second)
		record("hop")
	}
	return log
}

// TestArmFiresLikeSchedule is Arm's contract: a process that re-arms one
// owned event fires exactly where one that Schedules a fresh event per tick
// would — under exact ties with one-shots queued before and after it, children
// scheduled from inside its callback, and cancel-then-re-arm from another
// process — with NextEventAt and Pending read at every step.
func TestArmFiresLikeSchedule(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		want := armScenario(seed, false)
		got := armScenario(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: Arm build logged %d lines, Schedule build %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d, line %d:\n arm:      %s\n schedule: %s", seed, i, got[i], want[i])
			}
		}
	}
}

// TestArmRefusesPendingEvent: the clock holds an event once. Arming one that
// is still queued panics and leaves the queue as it was; once the event has
// fired or been cancelled it can be armed again.
func TestArmRefusesPendingEvent(t *testing.T) {
	c := New()
	fired := 0
	e := &Event{Name: "slot", Fn: func() { fired++ }}
	c.Arm(e, time.Second)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Arm of a pending event did not panic")
			}
		}()
		c.Arm(e, 2*time.Second)
	}()
	if at, _ := c.NextEventAt(); c.Pending() != 1 || at != time.Second {
		t.Fatalf("refused Arm changed the queue: pending %d, next at %s", c.Pending(), at)
	}
	c.Run(0)
	c.Arm(e, time.Second)
	c.Cancel(e)
	c.Arm(e, time.Second)
	if c.Run(0); fired != 2 || c.Now() != 2*time.Second {
		t.Fatalf("fired %d times by %s, want 2 by 2s", fired, c.Now())
	}
}
