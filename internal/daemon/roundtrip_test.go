package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// roundTripEnv serves one TimingOnly partition through Handler() behind a
// middleware that counts requests by kind and moves the clock: each status
// poll advances simulated time by a second before it is answered, so a job
// finishes after a fixed number of polls and no pump goroutine is needed.
type roundTripEnv struct {
	clk *simclock.Clock
	d   *Daemon
	ts  *httptest.Server
	c   *Client
	// failNext makes the next device completion reach the daemon as a failure.
	failNext atomic.Bool

	mu sync.Mutex // guards n, and serializes the clock's drivers
	n  roundTrips
}

// roundTrips counts requests: all of them, and the three kinds a job costs.
type roundTrips struct{ requests, posts, statuses, results int }

// trips returns the counts so far; zeroed starts them again.
func (e *roundTripEnv) trips(zeroed bool) roundTrips {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.n
	if zeroed {
		e.n = roundTrips{}
	}
	return n
}

func (e *roundTripEnv) advance(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clk.Advance(d)
}

func newRoundTripEnv(t *testing.T) *roundTripEnv {
	t.Helper()
	e := &roundTripEnv{clk: simclock.New()}
	dev, err := device.New(device.Config{Clock: e.clk, Seed: 7, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.d, err = NewDaemon(Config{Devices: []*device.Device{dev}, Clock: e.clk, AdminToken: "x"}); err != nil {
		t.Fatal(err)
	}
	dev.SetTaskListener(func(deviceID, taskID string, state device.TaskState) {
		if state == device.TaskCompleted && e.failNext.CompareAndSwap(true, false) {
			state = device.TaskFailed
		}
		e.d.onDeviceTask(deviceID, taskID, state)
	})
	h := e.d.Handler()
	e.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, isJob := strings.CutPrefix(r.URL.Path, "/api/v1/jobs")
		e.mu.Lock()
		e.n.requests++
		switch {
		case !isJob:
		case r.Method == http.MethodPost:
			e.n.posts++
		case r.Method == http.MethodGet && strings.HasSuffix(id, "/result"):
			e.n.results++
		case r.Method == http.MethodGet:
			e.n.statuses++
			e.clk.Advance(time.Second)
		}
		e.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(e.ts.Close)
	if e.c, err = NewClient(e.ts.URL, "alice", sched.ClassTest, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// finish starts a job of the given length and polls it to its terminal state.
func (e *roundTripEnv) finish(t *testing.T, shots int) string {
	t.Helper()
	id, err := e.c.TaskStart(payload(t, shots))
	if err != nil {
		t.Fatal(err)
	}
	e.poll(t, id)
	return id
}

// wait polls a job to its terminal state.
func (e *roundTripEnv) wait(id string) (st qrmi.TaskState, err error) {
	for !st.Terminal() && err == nil {
		st, err = e.c.TaskStatus(id)
	}
	return st, err
}

func (e *roundTripEnv) poll(t *testing.T, id string) qrmi.TaskState {
	t.Helper()
	st, err := e.wait(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fetched reads GET …/result directly, beside the client.
func (e *roundTripEnv) fetched(t *testing.T, id string) []byte {
	t.Helper()
	code, out := httpDo(t, "GET", e.ts.URL+"/api/v1/jobs/"+id+"/result", e.c.SessionToken(), nil)
	if code != http.StatusOK {
		t.Fatalf("result of %s = %d: %s", id, code, out)
	}
	return out
}

// TestRunProgramTakesTwoKindsOfRoundTrip: the blocking convenience every CLI
// and example uses costs one POST and its status polls — the poll that reads
// "completed" brings the result, and no result request follows.
func TestRunProgramTakesTwoKindsOfRoundTrip(t *testing.T) {
	e := newRoundTripEnv(t)
	var prog qir.Program
	if err := json.Unmarshal(payload(t, 12), &prog); err != nil {
		t.Fatal(err)
	}
	e.trips(true)
	res, err := qrmi.RunProgram(e.c, &prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.QPUSeconds <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if n := e.trips(false); n.posts != 1 || n.results != 0 || n.statuses < 2 || n.requests != 1+n.statuses {
		t.Fatalf("RunProgram made %+v; want 1 POST, its status polls and nothing else", n)
	}
}

// TestClientResultMemo: the memo hands over exactly the bytes GET …/result
// serves, once, for the job the latest status reply was about — and every
// other order of calls falls back to the request and still succeeds.
func TestClientResultMemo(t *testing.T) {
	e := newRoundTripEnv(t)

	id := e.finish(t, 5)
	got, err := e.c.TaskResult(id)
	if n := e.trips(false).results; err != nil || n != 0 {
		t.Fatalf("TaskResult after the terminal poll = %v, %d result requests", err, n)
	}
	if want := e.fetched(t, id); !bytes.Equal(got, want) {
		t.Fatalf("memo result %q, GET result %q", got, want)
	}
	e.trips(true)
	again, err := e.c.TaskResult(id)
	if n := e.trips(false).results; err != nil || !bytes.Equal(again, got) || n != 1 {
		t.Fatalf("second TaskResult = %q, %v, %d result requests; want the same bytes from one request", again, err, n)
	}

	// No status poll before the result.
	id, err = e.c.TaskStart(payload(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.c.TaskResult(id); !errors.Is(err, qrmi.ErrResultNotReady) {
		t.Fatalf("TaskResult of a running job = %v", err)
	}
	e.advance(time.Minute)
	e.trips(true)
	res, err := e.c.TaskResult(id)
	if n := e.trips(false).results; err != nil || n != 1 || !bytes.Equal(res, e.fetched(t, id)) {
		t.Fatalf("TaskResult without a poll = %q, %v, %d result requests", res, err, n)
	}

	// A status for another job in between: the later one owns the memo.
	x, y := e.finish(t, 7), e.finish(t, 8)
	for _, id := range []string{x, y} {
		if _, err := e.c.TaskStatus(id); err != nil {
			t.Fatal(err)
		}
	}
	e.trips(true)
	resX, errX := e.c.TaskResult(x)
	resY, errY := e.c.TaskResult(y)
	if n := e.trips(false).results; errX != nil || errY != nil || n != 1 {
		t.Fatalf("TaskResult(x), TaskResult(y) after statuses for x then y = %v, %v, %d result requests; want one, for x", errX, errY, n)
	}
	if !bytes.Equal(resX, e.fetched(t, x)) || !bytes.Equal(resY, e.fetched(t, y)) || bytes.Equal(resX, resY) {
		t.Fatalf("results crossed: x %q, y %q", resX, resY)
	}

	// Close forgets the result along with the session.
	id = e.finish(t, 9)
	if err := e.c.Close(); err != nil {
		t.Fatal(err)
	}
	if e.c.memoID != "" || e.c.memoResult != nil {
		t.Fatalf("memo after Close: %q %q", e.c.memoID, e.c.memoResult)
	}
	if _, err := e.c.TaskResult(id); err == nil {
		t.Fatal("TaskResult on a closed session succeeded")
	}
}

// TestClientResultOfUnsuccessfulJobs: a failed or cancelled job's status
// reply carries no result, so TaskResult asks and reports the daemon's 422
// reason as before (TestRejectedJobResultIsTerminal does the same for a
// rejected one).
func TestClientResultOfUnsuccessfulJobs(t *testing.T) {
	e := newRoundTripEnv(t)

	e.failNext.Store(true)
	id := e.finish(t, 5)
	if _, err := e.c.TaskResult(id); err == nil || !strings.Contains(err.Error(), "job failed") || !strings.Contains(err.Error(), "422") {
		t.Fatalf("TaskResult of a failed job = %v", err)
	}

	id, err := e.c.TaskStart(payload(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.c.TaskStop(id); err != nil {
		t.Fatal(err)
	}
	if st := e.poll(t, id); st != qrmi.StateCancelled {
		t.Fatalf("stopped job is %s", st)
	}
	if _, err := e.c.TaskResult(id); err == nil || !strings.Contains(err.Error(), "cancelled") || !strings.Contains(err.Error(), "422") {
		t.Fatalf("TaskResult of a cancelled job = %v", err)
	}
	if n := e.trips(false).results; n != 2 {
		t.Fatalf("%d result requests, want one per unsuccessful job", n)
	}
}

// TestClientMemoConcurrentUse: goroutines sharing one Client each get their
// own job's result, whichever of them the memo last served (run under -race).
func TestClientMemoConcurrentUse(t *testing.T) {
	e := newRoundTripEnv(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		shots := 3 + w
		program := payload(t, shots)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := e.runOne(program, float64(shots)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// runOne is RunProgram's loop for a raw payload, checking that the result is
// the one of a job that held the QPU for qpuSeconds.
func (e *roundTripEnv) runOne(program []byte, qpuSeconds float64) error {
	id, err := e.c.TaskStart(program)
	if err != nil {
		return err
	}
	if _, err := e.wait(id); err != nil {
		return err
	}
	raw, err := e.c.TaskResult(id)
	if err != nil {
		return err
	}
	var res qir.Result
	if err := json.Unmarshal(raw, &res); err != nil || res.QPUSeconds != qpuSeconds {
		return fmt.Errorf("%s: result %q (%v), want qpu_seconds %g", id, raw, err, qpuSeconds)
	}
	return nil
}
