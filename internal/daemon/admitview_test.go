package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// TestAdmitStageDoesNotAllocate: a decision refills the daemon's one load
// view instead of building a map, and slo-guard sorts its window in a buffer
// it keeps, so a queue-depth or slo-guard decision through admitStage —
// view, policy and the bound admission counters — allocates nothing.
func TestAdmitStageDoesNotAllocate(t *testing.T) {
	for _, pol := range []admission.Policy{admission.NewQueueDepth(), admission.NewSLOGuard()} {
		t.Run(pol.Name(), func(t *testing.T) {
			env, _ := newAdmissionEnv(t, 2, pol)
			s, err := env.d.OpenSession("alice")
			if err != nil {
				t.Fatal(err)
			}
			// A backlog for the view to count, and production waits in the
			// slo-guard window for its p99 to sort (well under target, so
			// every decision below is a plain accept).
			for i := 0; i < 4; i++ {
				if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 500), Class: sched.ClassTest}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				env.d.feed(admission.Signal{Class: sched.ClassProduction, At: env.clk.Now(), WaitSeconds: float64(i)})
			}
			req := SubmitRequest{Class: sched.ClassTest, ExpectedQPUSeconds: 30}
			if dec := env.d.admitStage(req, "alice"); dec.Outcome != admission.Accepted {
				t.Fatalf("decision %+v, want a plain accept", dec)
			}
			if n := testing.AllocsPerRun(200, func() { env.d.admitStage(req, "alice") }); n != 0 {
				t.Fatalf("a %s decision allocates %.1f times, want 0", pol.Name(), n)
			}
		})
	}
}

// TestSubmitSettleForgetAllocs: a warm timing-only job from Submit through
// settlement to eviction makes what outlives the call or cannot be reused —
// its record and ID, its queue item, the device task's ID and the Result the
// record keeps. Submit returns the record by value and the device recycles
// the task record with its exec callback. Retention evicts each record as
// the next one ends (History 1), never through the job pool, whose reuse the
// race detector randomizes. The warm-up runs past job 99: strconv formats a
// two-digit number without allocating, and AllocsPerRun rounds down, so a
// measured run that began among them would hide an allocation per ID.
func TestSubmitSettleForgetAllocs(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var ended bool
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, Seed: 1, History: 1,
		JobListener: func(ev JobEvent) { ended = ended || ev.Type == JobEventFinished }})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Program: payload(t, 20), Class: sched.ClassDev, Source: "loadgen"}
	job := func() {
		ended = false
		if _, err := d.Submit(s.Token, req); err != nil {
			t.Fatal(err)
		}
		for !ended {
			next, _ := clk.NextEventAt()
			clk.RunUntil(next)
		}
	}
	for i := 0; i < 128; i++ {
		job() // warm the memos, the tables and the free lists
	}
	if n := testing.AllocsPerRun(500, job); n > 5 {
		t.Fatalf("a timing-only job allocates %.1f times, want ≤ 5", n)
	}
}

// viewRecorder is queue-depth with a witness: at every decision it copies
// the view it is lent and, beside it, a snapshot built from the job table
// alone — the same load read through records instead of queues.
type viewRecorder struct {
	*admission.QueueDepth
	d           *Daemon
	seen, truth []admission.View
	shed        int
}

func (r *viewRecorder) Admit(req admission.Request, view admission.View) admission.Decision {
	seen := view
	seen.ByClass = maps.Clone(view.ByClass)
	r.seen = append(r.seen, seen)
	r.truth = append(r.truth, r.snapshot(req.Now))
	dec := r.QueueDepth.Admit(req, view)
	if dec.Outcome == admission.Rejected {
		r.shed++
	}
	return dec
}

// snapshot counts queued and running records per class. Queue-seconds add
// per partition in fleet order, as exact durations, the way the queues keep
// them; a job's queue age runs from its submission.
func (r *viewRecorder) snapshot(now time.Duration) admission.View {
	d := r.d
	v := admission.View{Devices: len(d.fleet), ByClass: make(map[sched.Class]admission.ClassLoad)}
	qpu := make(map[string]*[sched.ClassProduction + 1]time.Duration)
	for _, ds := range d.fleet {
		qpu[ds.id] = new([sched.ClassProduction + 1]time.Duration)
	}
	for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
		v.ByClass[c] = admission.ClassLoad{}
	}
	for _, j := range tableJobs(d) {
		switch j.State {
		case JobRunning:
			v.Running++
		case JobQueued:
			load := v.ByClass[j.Class]
			load.Queued++
			load.OldestAge = max(load.OldestAge, now-j.SubmittedAt)
			v.ByClass[j.Class] = load
			qpu[j.Device][j.Class] += simclock.Seconds(j.ExpectedQPUSeconds)
		}
	}
	for _, ds := range d.fleet {
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			load := v.ByClass[c]
			load.QueuedQPUSeconds += qpu[ds.id][c].Seconds()
			v.ByClass[c] = load
		}
	}
	return v
}

// TestAdmissionViewMatchesJobTable: the view every decision is lent — one
// map, cleared and refilled — equals a snapshot built independently from
// the job table at that decision, over a saturated queue-depth run that sheds
// by depth and by age, down a two-partition fleet with production preempting.
func TestAdmissionViewMatchesJobTable(t *testing.T) {
	rec := &viewRecorder{QueueDepth: admission.NewQueueDepth()}
	rec.MaxAge = 20 * time.Minute
	env, _ := newAdmissionEnv(t, 2, rec)
	rec.d = env.d
	sessions := make([]*Session, 3)
	for i := range sessions {
		var err error
		if sessions[i], err = env.d.OpenSession(fmt.Sprintf("user-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two partitions serve ≈ 2 jobs a minute; 6 arrive, every tenth of them
	// production.
	programs := [][]byte{payload(t, 40), payload(t, 90), payload(t, 150)}
	const arrivals = 600
	for i := 0; i < arrivals; i++ {
		class := sched.ClassDev + sched.Class(i%2)
		if i%10 == 9 {
			class = sched.ClassProduction
		}
		req := SubmitRequest{Program: programs[i%3], Class: class}
		s := sessions[i%3]
		env.clk.ScheduleAt(time.Duration(i)*10*time.Second, "arrival", func() {
			if _, err := env.d.Submit(s.Token, req); err != nil && class == sched.ClassProduction {
				t.Errorf("production submit: %v", err)
			}
		})
	}
	env.clk.RunUntil(arrivals * 10 * time.Second)
	env.drain(t, 48*time.Hour)
	if len(rec.seen) != arrivals || rec.shed == 0 {
		t.Fatalf("%d decisions (%d shed), want %d with some shed", len(rec.seen), rec.shed, arrivals)
	}
	queued, running := false, false
	for i := range rec.seen {
		got, want := rec.seen[i], rec.truth[i]
		if got.Devices != want.Devices || got.Running != want.Running || len(got.ByClass) != len(want.ByClass) {
			t.Fatalf("decision %d: view %+v, job table says %+v", i, got, want)
		}
		for c, w := range want.ByClass {
			if g := got.ByClass[c]; g != w {
				t.Fatalf("decision %d, class %s: view %+v, job table says %+v", i, c, g, w)
			}
			queued = queued || w.Queued > 0
		}
		running = running || want.Running > 0
	}
	if !queued || !running {
		t.Fatal("the run never queued or never ran a job: nothing was compared")
	}
}

// TestConcurrentShedsCarryRetryAfter (run under -race by make test-race):
// decisions and Retry-After hints read the daemon's one view, so sheds
// racing each other through POST /api/v1/jobs must each still answer 429
// with a hint inside its [1 s, 24 h] clamp — and the race detector sees no
// view read outside the admission lock.
func TestConcurrentShedsCarryRetryAfter(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "root-token",
		Admission: admission.NewQueueDepth(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	s, err := d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	// One running and eight queued 2000-shot dev jobs: the class is at its
	// depth cap and, with the clock held, stays there.
	body := map[string]any{"program": analogPayload(t, 2000), "class": "dev"}
	for i := 0; i < 9; i++ {
		if code, out := httpDo(t, "POST", srv.URL+"/api/v1/jobs", s.Token, body); code != http.StatusAccepted {
			t.Fatalf("filling job %d: %d %s", i, code, out)
		}
	}
	const clients, each = 8, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				code, hint, err := postForRetryAfter(srv.URL+"/api/v1/jobs", s.Token, body)
				if err != nil {
					t.Error(err)
					return
				}
				if code != http.StatusTooManyRequests {
					t.Errorf("shed submit answered %d, want 429", code)
					return
				}
				if secs, err := strconv.Atoi(hint); err != nil || secs < 1 || secs > 86400 {
					t.Errorf("Retry-After %q, want integer seconds in [1, 86400]", hint)
				}
			}
		}()
	}
	wg.Wait()
}

// postForRetryAfter posts body and returns the status and Retry-After header;
// unlike httpDo it reports failures as errors, for use off the test goroutine.
func postForRetryAfter(url, token string, body any) (int, string, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(raw))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), err
}
