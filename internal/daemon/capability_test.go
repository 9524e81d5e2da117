package daemon

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// TestCapabilityRule: on a fleet where one partition can run a 2-atom program
// and the other (MaxQubits 1) cannot, whatever the spec names, the fleet
// order and the router, GIVEN six unpinned dev submissions behind a
// six-token bucket and then a production job,
//   - every submission is accepted and lands on the capable partition;
//   - the door's six tokens go to the six accepted jobs, so a seventh
//     submission is shed: no token was spent on a submission that failed;
//   - the production job preempts the running dev job, and the victim is
//     requeued where it can run, while the small partition sits idle.
//
// Which partitions can run a program is decided by spec contents, not names:
// a small partition that shares the large one's name must neither hide the
// large one from validation nor receive work it cannot run.
func TestCapabilityRule(t *testing.T) {
	const n = 6
	routers := []string{"round-robin", "least-loaded", "class-affinity", "affinity"}
	for _, sameName := range []bool{true, false} {
		for _, smallFirst := range []bool{true, false} {
			for _, router := range routers {
				name := fmt.Sprintf("same-name=%v/small-first=%v/%s", sameName, smallFirst, router)
				t.Run(name, func(t *testing.T) {
					env := newMixedFleet(t, sameName, smallFirst, router, n)
					d, large := env.d, env.large
					s, _ := d.OpenSession("alice")
					prog := payload(t, 30)

					var accepted, refused, misplaced int
					var first Job
					for i := 0; i < n; i++ {
						j, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassDev})
						switch {
						case err != nil:
							refused++
						case j.Device != large:
							misplaced++
						default:
							accepted++
						}
						if i == 0 {
							first = j
						}
					}
					_, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassDev})
					var shed *RejectedError
					if accepted != n || !errors.As(err, &shed) {
						t.Errorf("%d of %d accepted on %s, %d refused, %d on the small partition; submission %d: %v (want shed: the bucket held %d tokens)",
							accepted, n, large, refused, misplaced, n+1, err, n)
					}

					prod, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassProduction})
					if err != nil || prod.Device != large {
						t.Errorf("production job: device %q, err %v; want %s", prod.Device, err, large)
					}
					if first.ID != "" {
						victim, err := d.JobStatus(s.Token, first.ID)
						if err != nil {
							t.Fatal(err)
						}
						if victim.Preemptions != 1 || victim.State != JobQueued || victim.Device != large {
							t.Errorf("victim %s: %s on %s after %d preemptions; want queued on %s after 1",
								first.ID, victim.State, victim.Device, victim.Preemptions, large)
						}
					}
					for _, ev := range env.events {
						if ev.Type == JobEventRequeued && ev.Job.Device != large ||
							ev.Type == JobEventFinished && ev.Job.State == JobFailed {
							t.Errorf("%s %s on %s: %s", ev.Job.ID, ev.Type, ev.Job.Device, ev.Job.Error)
						}
					}
				})
			}
		}
	}
}

type mixedFleet struct {
	d      *Daemon
	large  string
	events []JobEvent
}

// newMixedFleet boots a two-partition daemon whose "small" partition cannot
// run a 2-atom program, behind a dev token bucket of burst tokens that does
// not refill within the test.
func newMixedFleet(t *testing.T, sameName, smallFirst bool, router string, burst int) *mixedFleet {
	t.Helper()
	clk := simclock.New()
	small, big := qir.DefaultAnalogSpec(), qir.DefaultAnalogSpec()
	small.MaxQubits = 1
	if !sameName {
		small.Name, big.Name = "small-qpu", "large-qpu"
	}
	specs := []qir.DeviceSpec{small, big}
	if !smallFirst {
		specs[0], specs[1] = big, small
	}
	env := &mixedFleet{}
	var devs []*device.Device
	for i, spec := range specs {
		id := fmt.Sprintf("p%d", i)
		dev, err := device.New(device.Config{ID: id, Spec: spec, Clock: clk, Seed: int64(i + 1),
			DriftInterval: time.Hour, TimingOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if spec.MaxQubits > 1 {
			env.large = id
		}
		devs = append(devs, dev)
	}
	r, err := NewRouter(router)
	if err != nil {
		t.Fatal(err)
	}
	door := admission.NewTokenBucketWith(map[sched.Class]admission.Quota{
		sched.ClassDev: {RatePerHour: 1e-9, Burst: float64(burst)},
	})
	env.d, err = NewDaemon(Config{
		Devices: devs, Clock: clk, Router: r, Admission: door, EnablePreemption: true,
		AdminToken: "admin", Seed: 1,
		JobListener: func(ev JobEvent) { env.events = append(env.events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}
