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

	mu sync.Mutex // guards n and onStatus, and serializes the clock's drivers
	n  roundTrips
	// onStatus, when set, answers the next status request in the handler's
	// place (which it is given, to call or not); it is used once.
	onStatus func(w http.ResponseWriter, r *http.Request, next http.Handler)
}

// interceptStatus sets onStatus.
func (e *roundTripEnv) interceptStatus(f func(w http.ResponseWriter, r *http.Request, next http.Handler)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onStatus = f
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

func newRoundTripEnv(t *testing.T) *roundTripEnv { return newRoundTripEnvHistory(t, 0) }

// newRoundTripEnvHistory is newRoundTripEnv with Config.History set.
func newRoundTripEnvHistory(t *testing.T, history int) *roundTripEnv {
	t.Helper()
	e := &roundTripEnv{clk: simclock.New()}
	dev, err := device.New(device.Config{Clock: e.clk, Seed: 7, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.d, err = NewDaemon(Config{Devices: []*device.Device{dev}, Clock: e.clk, AdminToken: "x", History: history}); err != nil {
		t.Fatal(err)
	}
	dev.SetTaskListener(func(deviceID, taskID string, state device.TaskState) {
		if state == device.TaskCompleted && e.failNext.CompareAndSwap(true, false) {
			state = device.TaskFailed
		}
		e.d.onDeviceTask(e.d.byDevice[deviceID], taskID, state)
	})
	h := e.d.Handler()
	e.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, isJob := strings.CutPrefix(r.URL.Path, "/api/v1/jobs")
		var intercept func(http.ResponseWriter, *http.Request, http.Handler)
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
			intercept, e.onStatus = e.onStatus, nil
		}
		e.mu.Unlock()
		if intercept != nil {
			intercept(w, r, h)
			return
		}
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

// start sends n TaskStarts of distinct small programs and returns the IDs.
func (e *roundTripEnv) start(t *testing.T, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		var err error
		if ids[i], err = e.c.TaskStart(payload(t, 2+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// memo returns the sizes of the client's two lists.
func (e *roundTripEnv) memo() (watching, settled int) {
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	return len(e.c.watching), len(e.c.settled)
}

// TestClientResultMemo (DESIGN §5 INV-C1): a settled result is exactly the bytes GET …/result
// serves, handed over once and only for its own ID — and every other order of
// calls falls back to the request and still succeeds. TaskStop and Close
// forget.
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
	// A task asked for is no longer watched; a later poll of it still settles
	// it, and the entry goes to whoever asks for the result next.
	if w, s := e.memo(); w != 0 || s != 0 {
		t.Fatalf("after TaskResult without a poll: %d watched, %d settled", w, s)
	}
	e.poll(t, id)
	if w, s := e.memo(); w != 0 || s != 1 {
		t.Fatalf("after the late poll: %d watched, %d settled", w, s)
	}
	if again, err := e.c.TaskResult(id); err != nil || !bytes.Equal(again, res) {
		t.Fatalf("TaskResult after the late poll = %q, %v", again, err)
	}

	// Two jobs settled by one reply, results taken in the other order: each
	// ID gets its own.
	xy := e.start(t, 2)
	e.advance(time.Minute)
	e.trips(true)
	for _, id := range xy {
		if st := e.poll(t, id); st != qrmi.StateCompleted {
			t.Fatalf("%s is %s", id, st)
		}
	}
	resY, errY := e.c.TaskResult(xy[1])
	resX, errX := e.c.TaskResult(xy[0])
	if n := e.trips(false); errX != nil || errY != nil || n.statuses != 1 || n.results != 0 {
		t.Fatalf("two jobs polled and fetched = %v, %v, %+v; want one status request and no result request", errX, errY, n)
	}
	if !bytes.Equal(resX, e.fetched(t, xy[0])) || !bytes.Equal(resY, e.fetched(t, xy[1])) || bytes.Equal(resX, resY) {
		t.Fatalf("results crossed: x %q, y %q", resX, resY)
	}

	// TaskStop forgets: a settled task is asked about again, a watched one
	// is no longer named.
	done, held := e.finish(t, 9), e.start(t, 1)[0]
	if err := e.c.TaskStop(done); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("TaskStop of a completed job = %v, want the 409", err)
	}
	if err := e.c.TaskStop(held); err != nil {
		t.Fatal(err)
	}
	if w, s := e.memo(); w != 0 || s != 0 {
		t.Fatalf("after TaskStop of both: %d watched, %d settled", w, s)
	}
	e.trips(true)
	if st, err := e.c.TaskStatus(done); err != nil || st != qrmi.StateCompleted || e.trips(false).statuses != 1 {
		t.Fatalf("status of a forgotten job = %s, %v, %+v; want one request", st, err, e.trips(false))
	}

	// Close forgets everything along with the session.
	e.start(t, 3)
	if err := e.c.Close(); err != nil {
		t.Fatal(err)
	}
	if w, s := e.memo(); w != 0 || s != 0 {
		t.Fatalf("after Close: %d watched, %d settled", w, s)
	}
	if _, err := e.c.TaskResult(done); err == nil {
		t.Fatal("TaskResult on a closed session succeeded")
	}
}

// TestBurstCostsOnePoll: eight TaskStarts, then status and result per job as
// every SDK loop does it — the first poll names the other seven, and its reply
// settles the burst.
func TestBurstCostsOnePoll(t *testing.T) {
	e := newRoundTripEnv(t)
	e.trips(true)
	ids := e.start(t, 8)
	e.advance(time.Minute)
	results := make([][]byte, len(ids))
	for i, id := range ids {
		if st := e.poll(t, id); st != qrmi.StateCompleted {
			t.Fatalf("%s is %s", id, st)
		}
		var err error
		if results[i], err = e.c.TaskResult(id); err != nil {
			t.Fatalf("result of %s: %v", id, err)
		}
	}
	if n := e.trips(false); n.posts != 8 || n.statuses > 2 || n.results != 0 || n.requests != n.posts+n.statuses {
		t.Fatalf("burst of 8 made %+v; want 8 POSTs, at most 2 status requests and nothing else", n)
	}
	if w, s := e.memo(); w != 0 || s != 0 {
		t.Fatalf("after the burst: %d watched, %d settled", w, s)
	}
	for i, id := range ids {
		if !bytes.Equal(results[i], e.fetched(t, id)) {
			t.Fatalf("result of %s = %q, GET result %q", id, results[i], e.fetched(t, id))
		}
	}

	// Unfinished jobs are asked about again: nothing but a terminal state is
	// kept.
	ids = e.start(t, 2)
	e.trips(true)
	for i := 0; i < 3; i++ {
		if st, err := e.c.TaskStatus(ids[1]); err != nil || st.Terminal() {
			t.Fatalf("poll %d of the queued job = %s, %v", i, st, err)
		}
	}
	if n := e.trips(false).statuses; n != 3 {
		t.Fatalf("3 polls of a queued job made %d status requests", n)
	}
}

// TestClientMemoBounded: the client holds at most memoSize watched IDs and
// memoSize settled results, whatever it started and never came back for, and
// a task pushed out of either list still reads correctly.
func TestClientMemoBounded(t *testing.T) {
	e := newRoundTripEnv(t)
	ids := e.start(t, 100)
	if w, _ := e.memo(); w != memoSize {
		t.Fatalf("%d watched after 100 TaskStarts, want %d", w, memoSize)
	}
	e.advance(24 * time.Hour)
	for _, id := range ids {
		if st := e.poll(t, id); st != qrmi.StateCompleted {
			t.Fatalf("%s is %s", id, st)
		}
		if w, s := e.memo(); w > memoSize || s > memoSize {
			t.Fatalf("%d watched, %d settled; the bound is %d", w, s, memoSize)
		}
	}
	if w, s := e.memo(); w != 0 || s != memoSize {
		t.Fatalf("100 finished and never fetched: %d watched, %d settled", w, s)
	}
	for _, id := range []string{ids[0], ids[99]} { // pushed out, still held
		if res, err := e.c.TaskResult(id); err != nil || !bytes.Equal(res, e.fetched(t, id)) {
			t.Fatalf("result of %s = %q, %v", id, res, err)
		}
	}
}

// TestEvictedJobLeavesTheMemo: a job Config.History evicted between two polls
// reads as the unknown job it is to a client that never batched, and is not
// named again.
func TestEvictedJobLeavesTheMemo(t *testing.T) {
	e := newRoundTripEnvHistory(t, 2)
	ids := e.start(t, 4)
	if st, err := e.c.TaskStatus(ids[0]); err != nil || st.Terminal() {
		t.Fatalf("first poll = %s, %v", st, err)
	}
	e.advance(time.Hour) // all four finish; the first two are evicted
	if st := e.poll(t, ids[2]); st != qrmi.StateCompleted {
		t.Fatalf("%s is %s", ids[2], st)
	}
	if w, s := e.memo(); w != 0 || s != 2 {
		t.Fatalf("after the reply left two IDs out: %d watched, %d settled", w, s)
	}
	_, err := e.c.TaskStatus(ids[0])
	_, want := e.c.TaskStatus("job-0")
	if err == nil || want == nil || err.Error() != strings.Replace(want.Error(), "job-0", ids[0], 1) {
		t.Fatalf("status of an evicted job = %v; of a never-minted one = %v", err, want)
	}
}

// TestFailedPollKeepsWatching: only the daemon's 404 says a task is gone. A
// status request that fails any other way — here a 503 from in front of the
// daemon — leaves the task watched, and the next poll names it again.
func TestFailedPollKeepsWatching(t *testing.T) {
	e := newRoundTripEnv(t)
	ids := e.start(t, 2)
	e.advance(time.Minute)
	e.interceptStatus(func(w http.ResponseWriter, _ *http.Request, _ http.Handler) {
		http.Error(w, "upstream unavailable", http.StatusServiceUnavailable)
	})
	if _, err := e.c.TaskStatus(ids[0]); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("status through the outage = %v, want the 503", err)
	}
	if w, s := e.memo(); w != 2 || s != 0 {
		t.Fatalf("after the failed poll: %d watched, %d settled", w, s)
	}
	e.trips(true)
	for _, id := range []string{ids[1], ids[0]} {
		if st := e.poll(t, id); st != qrmi.StateCompleted {
			t.Fatalf("%s is %s", id, st)
		}
	}
	if n := e.trips(false).statuses; n != 1 {
		t.Fatalf("%d status requests after the outage, want the one that names both", n)
	}
}

// TestStatusInFlightAcrossClose: a status reply that arrives after Close
// cleared the memo puts nothing back into it — the state it brought is
// returned, the result is not kept for a session that has ended.
func TestStatusInFlightAcrossClose(t *testing.T) {
	e := newRoundTripEnv(t)
	ids := e.start(t, 2)
	e.advance(time.Minute)
	e.interceptStatus(func(w http.ResponseWriter, r *http.Request, next http.Handler) {
		next.ServeHTTP(w, r) // the reply leaves when this handler returns
		if err := e.c.Close(); err != nil {
			t.Error(err)
		}
	})
	if st, err := e.c.TaskStatus(ids[0]); err != nil || st != qrmi.StateCompleted {
		t.Fatalf("status answered across Close = %s, %v", st, err)
	}
	if w, s := e.memo(); w != 0 || s != 0 {
		t.Fatalf("after Close with a poll in flight: %d watched, %d settled", w, s)
	}
	for _, id := range ids {
		if _, err := e.c.TaskResult(id); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("TaskResult of %s on the closed session = %v, want the 401", id, err)
		}
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
// own job's result, whichever of them sent the poll that settled it, while
// another starts and stops tasks beside them; then Close beside goroutines
// that still poll (run under -race).
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
	long := payload(t, 400)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			id, err := e.c.TaskStart(long)
			if err == nil {
				err = e.c.TaskStop(id)
			}
			if st, _ := e.wait(id); err != nil || st != qrmi.StateCancelled {
				t.Errorf("stopped task %s is %s (%v)", id, st, err)
				return
			}
		}
	}()
	wg.Wait()
	if w, s := e.memo(); w != 0 || s > memoSize {
		t.Fatalf("when all is done: %d watched, %d settled", w, s)
	}

	// Close beside the pollers: each polls its task — to the end, then from
	// the memo — until the closed session refuses it; nothing is left behind.
	for _, id := range e.start(t, 4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for err := error(nil); err == nil; {
				_, err = e.c.TaskStatus(id)
			}
		}()
	}
	if err := e.c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if w, s := e.memo(); w != 0 || s != 0 {
		t.Fatalf("after Close beside pollers: %d watched, %d settled", w, s)
	}
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
