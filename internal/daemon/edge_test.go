package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// TestServedEdgeStress drives the world from outside through its two kinds
// of edge at once (run under -race; make test-race runs it twenty times):
// four sessions POST bursts of jobs through Handler() — every class, so
// production preempts, and a DELETE of each burst's last job — while a
// pump advances the clock from event to event with NextEventAt and RunUntil,
// as the benchmark harness's served workloads do, so device completions and
// the dispatches they trigger land between bursts, and an operator reads
// the admin status, the flight recorder's listing and traces, the metrics
// exposition and the TSDB query. The pump steps only while no burst is
// open, so the clock stands still from a burst's first POST to its DELETE,
// and every
// cancel reaches a job still queued or running: each answers 200, on the
// served path through the job table to the device's task table. At
// quiescence every accepted job is terminal, the jobs are conserved
// (submitted = completed + failed + cancelled + rejected), exactly the
// cancelled jobs ended cancelled, and every record's times are ordered:
// submitted ≤ started ≤ finished.
func TestServedEdgeStress(t *testing.T) {
	const (
		adminToken       = "admin"
		sessions, bursts = 4, 6
		burst            = 5
	)
	var outstanding, submitted, terminal, cancelled atomic.Int64
	// gate is held shared by each open burst and exclusively by each pump
	// step.
	var gate sync.RWMutex
	wake, stop, pumped := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	clk := simclock.New()
	d, err := NewNode(NodeSpec{
		Partitions: 3,
		Device:     device.Config{TimingOnly: true},
		Daemon: Config{
			Clock: clk, AdminToken: adminToken, EnablePreemption: true, ProgramCache: 4, Seed: 1,
			Registry: telemetry.NewRegistry(), TSDB: telemetry.NewTSDB(24*time.Hour, 0),
			Flight: trace.NewFlightRecorder(64),
			JobListener: func(ev JobEvent) {
				switch ev.Type {
				case JobEventSubmitted:
					submitted.Add(1)
					outstanding.Add(1)
					select {
					case wake <- struct{}{}:
					default:
					}
				case JobEventFinished, JobEventRejected:
					terminal.Add(1)
					outstanding.Add(-1)
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	go func() { // the pump
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			case <-wake:
			}
			for outstanding.Load() > 0 {
				gate.Lock()
				next, ok := clk.NextEventAt()
				if ok {
					clk.RunUntil(next)
				}
				gate.Unlock()
				if !ok {
					break
				}
			}
		}
	}()

	do := func(method, path, token string, body any) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				return 0, nil, err
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	programs := [][]byte{payload(t, 3), payload(t, 20), payload(t, 60)}
	classes := []string{"dev", "test", "production", "dev", "test"}

	var accepted sync.Map // job ID → session token
	var wg sync.WaitGroup
	for u := 0; u < sessions; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, out, err := do(http.MethodPost, "/api/v1/sessions", "", map[string]string{"user": fmt.Sprintf("user-%d", u)})
			var sess Session
			if err == nil && code == http.StatusCreated {
				err = json.Unmarshal(out, &sess)
			}
			if err != nil || code != http.StatusCreated {
				t.Errorf("open session: HTTP %d, %v", code, err)
				return
			}
			for b := 0; b < bursts; b++ {
				gate.RLock()
				var last string
				for i := 0; i < burst; i++ {
					body := map[string]any{"program": json.RawMessage(programs[(u+b+i)%len(programs)]), "class": classes[(u+i)%len(classes)]}
					code, out, err := do(http.MethodPost, "/api/v1/jobs", sess.Token, body)
					var j struct{ ID string }
					if err == nil {
						err = json.Unmarshal(out, &j)
					}
					if err != nil || code != http.StatusAccepted {
						t.Errorf("submit: HTTP %d, %v: %s", code, err, out)
						gate.RUnlock()
						return
					}
					accepted.Store(j.ID, sess.Token)
					last = j.ID
				}
				code, out, err := do(http.MethodDelete, "/api/v1/jobs/"+last, sess.Token, nil)
				gate.RUnlock()
				if err != nil || code != http.StatusOK {
					t.Errorf("cancel %s: HTTP %d, %v: %s — the clock moved inside a burst", last, code, err, out)
					continue
				}
				cancelled.Add(1)
			}
		}()
	}
	operatorDone := make(chan struct{})
	go func() { // the operator
		defer close(operatorDone)
		code, out, err := do(http.MethodPost, "/api/v1/sessions", "", map[string]string{"user": "operator"})
		var sess Session
		if err == nil && code == http.StatusCreated {
			err = json.Unmarshal(out, &sess)
		}
		if err != nil || code != http.StatusCreated {
			t.Errorf("open operator session: HTTP %d, %v", code, err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, out, err := do(http.MethodGet, "/admin/v1/status", adminToken, nil); err != nil || code != http.StatusOK {
				t.Errorf("admin status: HTTP %d, %v: %s", code, err, out)
				return
			}
			// The flight recorder, read while the pump and the submitters
			// write it: the listing, then the newest trace it named, which
			// may have been evicted since.
			code, out, err := do(http.MethodGet, "/api/v1/trace", sess.Token, nil)
			var listing struct{ Jobs []trace.JobTrace }
			if err == nil {
				err = json.Unmarshal(out, &listing)
			}
			if err != nil || code != http.StatusOK {
				t.Errorf("trace listing: HTTP %d, %v: %s", code, err, out)
				return
			}
			if n := len(listing.Jobs); n > 0 {
				id := listing.Jobs[n-1].Job
				code, out, err := do(http.MethodGet, "/api/v1/trace/"+id, sess.Token, nil)
				var tr trace.JobTrace
				if err == nil && code == http.StatusOK {
					err = json.Unmarshal(out, &tr)
				}
				if err != nil || code != http.StatusOK && code != http.StatusNotFound || code == http.StatusOK && tr.Job != id {
					t.Errorf("trace of %s: HTTP %d, %v: %s", id, code, err, out)
					return
				}
			}
			// Telemetry, which keeps no lock either: the exposition, a range
			// query and a downsampled one, read while the pump and the
			// submitters write both stores.
			for _, path := range []string{
				"/metrics",
				"/api/v1/metrics/query?name=daemon_queue_length&class=dev",
				"/api/v1/metrics/query?name=daemon_device_queue_length&device=analog-qpu-p1&class=test&from=0&window=30s&agg=max",
			} {
				if code, out, err := do(http.MethodGet, path, "", nil); err != nil || code != http.StatusOK {
					t.Errorf("GET %s: HTTP %d, %v: %s", path, code, err, out)
					return
				}
			}
		}
	}()
	wg.Wait()
	// Quiescence: the pump has run every accepted job to its end.
	for deadline := time.Now().Add(30 * time.Second); outstanding.Load() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still outstanding", outstanding.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-pumped
	<-operatorDone

	n := 0
	accepted.Range(func(id, token any) bool {
		n++
		code, out, err := do(http.MethodGet, "/api/v1/jobs/"+id.(string), token.(string), nil)
		var j struct{ State string }
		if err == nil {
			err = json.Unmarshal(out, &j)
		}
		switch {
		case err != nil || code != http.StatusOK:
			t.Errorf("status of %s: HTTP %d, %v", id, code, err)
		case j.State != string(JobCompleted) && j.State != string(JobCancelled):
			t.Errorf("%s ended %s", id, j.State)
		}
		return true
	})
	clk.Lock()
	jobs := d.ListJobs()
	clk.Unlock()
	if want := sessions * bursts * burst; n != want || len(jobs) != want || submitted.Load() != int64(want) {
		t.Fatalf("%d accepted, %d records, %d submitted events; want %d of each", n, len(jobs), submitted.Load(), want)
	}
	ends := map[JobState]int{}
	for _, j := range jobs {
		ends[j.State]++
		if j.State == JobCompleted && !(j.SubmittedAt <= j.StartedAt && j.StartedAt <= j.FinishedAt) {
			t.Errorf("%s: submitted %v, started %v, finished %v", j.ID, j.SubmittedAt, j.StartedAt, j.FinishedAt)
		}
		if j.State == JobCancelled && j.FinishedAt < j.SubmittedAt {
			t.Errorf("%s: submitted %v, cancelled %v", j.ID, j.SubmittedAt, j.FinishedAt)
		}
	}
	if sum := ends[JobCompleted] + ends[JobFailed] + ends[JobCancelled] + ends[JobRejected]; sum != len(jobs) || terminal.Load() != int64(sum) {
		t.Fatalf("conservation: %d records, %v terminal, %d terminal events", len(jobs), ends, terminal.Load())
	}
	if want := int64(sessions * bursts); cancelled.Load() != want || ends[JobCancelled] != int(want) {
		t.Fatalf("%d cancels answered 200 and %d jobs ended cancelled; want %d of each", cancelled.Load(), ends[JobCancelled], want)
	}
	if ends[JobCompleted] == 0 {
		t.Fatalf("ends %v: no job completed", ends)
	}
}
