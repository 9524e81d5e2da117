package daemon

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// ending is how the retention driver makes one submission end.
type ending int

const (
	endCompleted ending = iota
	endFailed
	endCancelledQueued
	endCancelledRunning
	endRejected
)

// liveEnv drives a serving daemon through Handler() on a hand-cranked clock
// and keeps the books the retention bound is checked against: every ID it was
// answered with, whose it is, and the order the jobs turned terminal in.
type liveEnv struct {
	t       *testing.T
	history int
	clk     *simclock.Clock
	d       *Daemon
	ts      *httptest.Server
	tokens  []string
	// failNext makes the next device completion reach the daemon as a failure.
	failNext bool

	owner              map[string]string // job ID → session token
	finished, rejected []string          // job IDs in terminal order, per ring
	inFlight           map[string]bool
	bySource           map[string]int
	byState            map[string]int
	submitted          int
}

func newLiveEnv(t *testing.T, history int) *liveEnv {
	t.Helper()
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, err := device.New(device.Config{Clock: clk, Seed: 5, TimingOnly: true, DriftInterval: 1000 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Dev submissions find the door shut once the single token is spent;
	// test-class ones are unlimited.
	d, err := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "root-token", Seed: 3,
		Registry: reg, Admission: oneShotBucket(), History: history,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &liveEnv{t: t, history: history, clk: clk, d: d, owner: map[string]string{},
		inFlight: map[string]bool{}, bySource: map[string]int{}, byState: map[string]int{}}
	dev.SetTaskListener(func(deviceID, taskID string, state device.TaskState) {
		if e.failNext && state == device.TaskCompleted {
			e.failNext, state = false, device.TaskFailed
		}
		d.onDeviceTask(d.byDevice[deviceID], taskID, state)
	})
	e.ts = httptest.NewServer(d.Handler())
	t.Cleanup(e.ts.Close)
	for _, user := range []string{"alice", "bob"} {
		code, out := httpDo(t, "POST", e.ts.URL+"/api/v1/sessions", "", map[string]string{"user": user})
		var s Session
		if code != http.StatusCreated || json.Unmarshal(out, &s) != nil {
			t.Fatalf("open session = %d: %s", code, out)
		}
		e.tokens = append(e.tokens, s.Token)
	}
	// Spend the dev token on a job that completes.
	e.submit("dev", http.StatusAccepted)
	e.settle(JobCompleted)
	return e
}

// submit posts one job, alternating sessions and sources, and returns its ID.
func (e *liveEnv) submit(class string, want int) string {
	e.t.Helper()
	token := e.tokens[e.submitted%len(e.tokens)]
	body := map[string]any{"program": analogPayload(e.t, 5), "class": class}
	source := "slurm"
	if e.submitted%3 == 0 {
		source = "cloud"
		body["source"] = source
	}
	code, out := httpDo(e.t, "POST", e.ts.URL+"/api/v1/jobs", token, body)
	var j struct {
		ID string `json:"id"`
	}
	if code != want || json.Unmarshal(out, &j) != nil || j.ID == "" {
		e.t.Fatalf("submit %s = %d, want %d: %s", class, code, want, out)
	}
	e.submitted++
	e.bySource[source]++
	e.owner[j.ID] = token
	if code == http.StatusTooManyRequests {
		e.rejected = append(e.rejected, j.ID)
		e.byState[string(JobRejected)]++
	} else {
		e.inFlight[j.ID] = true
	}
	e.check()
	return j.ID
}

// ended books id as terminal in state.
func (e *liveEnv) ended(id string, state JobState) {
	delete(e.inFlight, id)
	e.finished = append(e.finished, id)
	e.byState[string(state)]++
}

// settle runs the clock until the one job in flight has left the device,
// ending in state.
func (e *liveEnv) settle(state JobState) {
	e.t.Helper()
	if len(e.inFlight) != 1 {
		e.t.Fatalf("settle with %d jobs in flight", len(e.inFlight))
	}
	e.clk.Advance(time.Hour)
	for id := range e.inFlight {
		e.ended(id, state)
	}
	e.check()
}

func (e *liveEnv) cancel(id string) {
	e.t.Helper()
	if code, out := httpDo(e.t, "DELETE", e.ts.URL+"/api/v1/jobs/"+id, e.owner[id], nil); code != http.StatusOK {
		e.t.Fatalf("cancel %s = %d: %s", id, code, out)
	}
	e.ended(id, JobCancelled)
	e.check()
}

// play makes one submission end the given way.
func (e *liveEnv) play(end ending) {
	e.t.Helper()
	switch end {
	case endCompleted:
		e.submit("test", http.StatusAccepted)
		e.settle(JobCompleted)
	case endFailed:
		e.submit("test", http.StatusAccepted)
		e.failNext = true
		e.settle(JobFailed)
	case endCancelledQueued:
		e.submit("test", http.StatusAccepted) // holds the device
		e.cancel(e.submit("test", http.StatusAccepted))
		e.settle(JobCompleted)
	case endCancelledRunning:
		e.cancel(e.submit("test", http.StatusAccepted))
	case endRejected:
		e.submit("dev", http.StatusTooManyRequests)
	}
}

// check is the live clause of INV-R1, sampled after every request: the job
// table holds the jobs in flight plus at most History records per ring, no
// job in flight has left it, and no session's list is more than twice its
// records.
func (e *liveEnv) check() {
	e.t.Helper()
	code, out := httpDo(e.t, "GET", e.ts.URL+"/admin/v1/jobs", "root-token", nil)
	var jobs []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if code != http.StatusOK || json.Unmarshal(out, &jobs) != nil {
		e.t.Fatalf("admin jobs = %d: %s", code, out)
	}
	inFlight, shed := 0, 0
	for _, j := range jobs {
		switch JobState(j.State) {
		case JobQueued, JobRunning:
			inFlight++
			if !e.inFlight[j.ID] {
				e.t.Fatalf("%s is %s in the table, the driver has it terminal", j.ID, j.State)
			}
		case JobRejected:
			shed++
		}
	}
	if inFlight != len(e.inFlight) {
		e.t.Fatalf("table holds %d jobs in flight, the driver %d: a queued or running record was evicted", inFlight, len(e.inFlight))
	}
	if done := len(jobs) - inFlight - shed; done > e.history || shed > e.history || len(jobs) > inFlight+2*e.history {
		e.t.Fatalf("table holds %d records: %d in flight + %d finished + %d rejected, History %d", len(jobs), inFlight, done, shed, e.history)
	}
	for _, s := range e.d.sessions {
		live := 0
		for _, id := range s.Jobs {
			if e.d.job(id) != nil {
				live++
			}
		}
		if len(s.Jobs) > 2*live {
			e.t.Fatalf("session %s lists %d jobs for %d records", s.User, len(s.Jobs), live)
		}
	}
}

// checkHistory: of each ring exactly the newest History records still read;
// an older ID is an unknown job (404) on the status path and on the result
// path. The lifetime counters saw every job all the same.
func (e *liveEnv) checkHistory() {
	e.t.Helper()
	if len(e.inFlight) != 0 {
		e.t.Fatalf("%d jobs still in flight", len(e.inFlight))
	}
	for _, ring := range [][]string{e.finished, e.rejected} {
		for i, id := range ring {
			want := http.StatusNotFound
			if i >= len(ring)-e.history {
				want = http.StatusOK
			}
			if code, out := httpDo(e.t, "GET", e.ts.URL+"/api/v1/jobs/"+id, e.owner[id], nil); code != want {
				e.t.Fatalf("status of %s (%d of %d in its ring, History %d) = %d, want %d: %s", id, i+1, len(ring), e.history, code, want, out)
			}
			if want == http.StatusNotFound {
				if code, out := httpDo(e.t, "GET", e.ts.URL+"/api/v1/jobs/"+id+"/result", e.owner[id], nil); code != http.StatusNotFound {
					e.t.Fatalf("result of evicted %s = %d: %s", id, code, out)
				}
			}
		}
	}
	code, out := httpDo(e.t, "GET", e.ts.URL+"/admin/v1/status", "root-token", nil)
	var st StatusReport
	if code != http.StatusOK || json.Unmarshal(out, &st) != nil {
		e.t.Fatalf("admin status = %d: %s", code, out)
	}
	if st.Rejected != len(e.rejected) {
		e.t.Fatalf("rejected_total = %d, %d submissions were shed", st.Rejected, len(e.rejected))
	}
	if fmt.Sprint(st.JobsBySource) != fmt.Sprint(e.bySource) {
		e.t.Fatalf("jobs_by_source = %v, submitted %v", st.JobsBySource, e.bySource)
	}
	_, out = httpDo(e.t, "GET", e.ts.URL+"/metrics", "", nil)
	counted := map[string]int{}
	for sc := bufio.NewScanner(strings.NewReader(string(out))); sc.Scan(); {
		series, value, _ := strings.Cut(sc.Text(), " ")
		if _, labels, ok := strings.Cut(series, "daemon_jobs_total{"); ok {
			_, state, _ := strings.Cut(labels, `state="`)
			if n, _ := strconv.ParseFloat(value, 64); n > 0 {
				counted[strings.TrimSuffix(state, `"}`)] += int(n)
			}
		}
	}
	if fmt.Sprint(counted) != fmt.Sprint(e.byState) {
		e.t.Fatalf("daemon_jobs_total = %v, the driver ended %v", counted, e.byState)
	}
}

// TestLiveRetentionBounded: a serving daemon keeps the jobs in flight and the
// last History terminal records of each ring, whatever mix of endings it has
// seen, and its counters keep counting what it no longer holds.
func TestLiveRetentionBounded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history int
		rounds  int
		mix     []ending
	}{
		{"every ending", 8, 26, []ending{endCompleted, endRejected, endCancelledQueued, endFailed, endCancelledRunning}},
		// Formerly TestRejectedHistoryBounded: one accepted job, then a flood.
		{"rejection flood", 3, 10, []ending{endRejected}},
		{"completions only", 4, 20, []ending{endCompleted}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newLiveEnv(t, tc.history)
			for i := 0; i < tc.rounds; i++ {
				for _, end := range tc.mix {
					e.play(end)
				}
			}
			if e.submitted < 3*tc.history {
				t.Fatalf("only %d submissions for History %d", e.submitted, tc.history)
			}
			e.checkHistory()
		})
	}
}

// TestRejectionFloodSparesUnfetchedResult is why there are two rings: a
// client hammering a shut door must not push out a completed job whose owner
// has not come back for the result yet.
func TestRejectionFloodSparesUnfetchedResult(t *testing.T) {
	e := newLiveEnv(t, 4)
	id := e.submit("test", http.StatusAccepted)
	e.settle(JobCompleted)
	for i := 0; i < 3*e.history; i++ {
		e.play(endRejected)
	}
	code, out := httpDo(t, "GET", e.ts.URL+"/api/v1/jobs/"+id+"/result", e.owner[id], nil)
	if code != http.StatusOK || !json.Valid(out) {
		t.Fatalf("result of %s after %d rejections = %d: %s", id, 3*e.history, code, out)
	}
	e.checkHistory()
}

// TestCancelOfUnseenJobIs404: DELETE of another session's job, of an evicted
// one and of an ID never minted answer the same 404 — a caller learns nothing
// about jobs it cannot see — while 409 still means "already terminal".
func TestCancelOfUnseenJobIs404(t *testing.T) {
	e := newLiveEnv(t, 1)
	evicted := e.finished[0]
	e.play(endCompleted) // pushes the warm-up job out of a History of 1
	foreign := e.submit("test", http.StatusAccepted)
	stranger := e.tokens[0]
	if stranger == e.owner[foreign] {
		stranger = e.tokens[1]
	}
	var bodies []string
	for _, tc := range [][2]string{{foreign, stranger}, {evicted, e.owner[evicted]}, {"job-987654", stranger}} {
		code, out := httpDo(t, "DELETE", e.ts.URL+"/api/v1/jobs/"+tc[0], tc[1], nil)
		if code != http.StatusNotFound {
			t.Fatalf("cancel of %s = %d, want 404: %s", tc[0], code, out)
		}
		bodies = append(bodies, strings.Replace(string(out), tc[0], "ID", 1))
	}
	if bodies[0] != bodies[1] || bodies[1] != bodies[2] || !strings.Contains(bodies[0], `unknown job \"ID\"`) {
		t.Fatalf("the three 404 bodies differ: %q", bodies)
	}
	e.cancel(foreign) // untouched by the stranger's attempt
	if code, out := httpDo(t, "DELETE", e.ts.URL+"/api/v1/jobs/"+foreign, e.owner[foreign], nil); code != http.StatusConflict {
		t.Fatalf("second cancel = %d, want 409: %s", code, out)
	}

	// The forced cancel of the admin plane and CloseSession reaches any job.
	id := e.submit("test", http.StatusAccepted)
	if err := e.d.CancelJob("", "job-987654", true); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("forced cancel of an unknown ID = %v", err)
	}
	if err := e.d.CancelJob("", id, true); err != nil {
		t.Fatal(err)
	}
	e.ended(id, JobCancelled)
	e.check()
}

// TestJobResultRacesEviction: result fetches race the terminal transitions
// that evict the records they read (run under -race). A fetch may find its
// job gone; it must not find half of it.
func TestJobResultRacesEviction(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 9, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x", History: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.OpenSession("alice")
	const jobs = 300
	ids := make(chan string, jobs)
	var fetchers sync.WaitGroup
	for w := 0; w < 4; w++ {
		fetchers.Add(1)
		go func() {
			defer fetchers.Done()
			for id := range ids {
				for i := 0; i < 20; i++ {
					clk.Lock()
					res, err := d.JobResult(s.Token, id)
					clk.Unlock()
					if err == nil && !json.Valid(res) {
						t.Errorf("result of %s is not JSON: %q", id, res)
					}
				}
			}
		}()
	}
	prog := payload(t, 1)
	for i := 0; i < jobs; i++ {
		clk.Lock()
		j, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassDev})
		clk.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		ids <- j.ID
		clk.Advance(time.Minute)
	}
	close(ids)
	fetchers.Wait()
	if n := len(d.ListJobs()); n > 2 {
		t.Fatalf("%d records retained, History 2", n)
	}
}

// TestJobStatusResultRacesEviction: the same race for the status reply that
// carries the result. A poll may find its job gone; one that finds it
// completed finds its whole result, and any other state comes without one.
func TestJobStatusResultRacesEviction(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 9, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x", History: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := d.OpenSession("alice")
	const jobs = 300
	ids := make(chan string, jobs)
	var pollers sync.WaitGroup
	for w := 0; w < 4; w++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for id := range ids {
				for i := 0; i < 20; i++ {
					clk.Lock()
					got, err := d.jobStatusResults(s.Token, id, nil)
					clk.Unlock()
					if err != nil {
						continue
					}
					j, res := &got[0], got[0].result
					if (j.State == JobCompleted) != (res != nil) || (res != nil && !json.Valid(res)) {
						t.Errorf("%s is %s with result %q", id, j.State, res)
					}
				}
			}
		}()
	}
	prog := payload(t, 1)
	for i := 0; i < jobs; i++ {
		clk.Lock()
		j, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassDev})
		clk.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		ids <- j.ID
		clk.Advance(time.Minute)
	}
	close(ids)
	pollers.Wait()
}

// tableJobs lists the records in the job table, oldest first.
func tableJobs(d *Daemon) []*Job {
	var out []*Job
	for _, j := range d.jobs.Slots() {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}
