package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/simclock"
)

// FuzzSubmitBody: whatever body a valid session POSTs to /api/v1/jobs, the
// served daemon answers without panicking and with a status the endpoint
// documents — 202 accepted, 400 a bad request (a malformed body, class or
// pattern, an unknown partition, a negative hint), 413 over the body cap, 422
// a program the daemon cannot decode or no partition can run, or 429 shed by
// the door — never a 5xx.
// The clock moves a little after each request, so jobs finish, the token
// bucket refills and the door both accepts and sheds.
func FuzzSubmitBody(f *testing.F) {
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "admin",
		Admission: admission.NewTokenBucket(), EnablePreemption: true, History: 8})
	if err != nil {
		f.Fatal(err)
	}
	s, _ := d.OpenSession("alice")
	h := d.Handler()
	prog := payload(f, 30)
	for _, body := range []string{
		`{"program":%s}`,
		`{"program":%s,"class":"production","device":"analog-qpu-p1","pattern":"qc-heavy"}`,
		`{"program":%s,"class":"test","expected_qpu_seconds":5,"deadline_seconds":60,"source":"cloud"}`,
		`{"program":%s,"class":"nope"}`,
		`{"program":%s,"pattern":"nope"}`,
		`{"program":%s,"device":"analog-qpu-p9"}`,
		`{"program":%s,"expected_qpu_seconds":-1}`,
		`{"program":%s,"deadline_seconds":1e400}`,
		`{"program":{"kind":"analog","shots":1}%.0s}`,
		`{"program":"%.0s"}`, `{}%.0s`, `null%.0s`, `[]%.0s`, `%.0s`, `{"program":%s`,
	} {
		f.Add([]byte(fmt.Sprintf(body, prog)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+s.Token)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST %q answered %d: %s", body, rec.Code, rec.Body)
		}
		clk.Advance(10 * time.Second)
	})
}

// FuzzJobStatusQuery: whatever job ID and raw query a valid session GETs
// /api/v1/jobs/{id} with, the served daemon answers without panicking and
// with 400 for more than maxAlso also parameters, else 404 for an ID the
// session cannot see, else 200 — never a 5xx. A 200 reply is the path ID's
// job, and its also array holds exactly the also IDs the session can see, in
// request order. The table holds the session's jobs queued and finished,
// another session's job and, behind History 2, evicted ones.
func FuzzJobStatusQuery(f *testing.F) {
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "admin", History: 2})
	if err != nil {
		f.Fatal(err)
	}
	alice, _ := d.OpenSession("alice")
	bob, _ := d.OpenSession("bob")
	prog := payload(f, 30)
	for i := 0; i < 12; i++ {
		if _, err := d.Submit(alice.Token, SubmitRequest{Program: prog}); err != nil {
			f.Fatal(err)
		}
		if i < 8 {
			clk.Advance(20 * time.Second)
		}
	}
	if _, err := d.Submit(bob.Token, SubmitRequest{Program: prog}); err != nil {
		f.Fatal(err)
	}
	mine := map[string]bool{} // the IDs alice can see
	states := map[JobState]bool{}
	held := map[string]bool{}
	for _, j := range d.ListJobs() {
		held[j.ID] = true
		if j.User == "alice" {
			mine[j.ID] = true
			states[j.State] = true
		}
	}
	if mine["job-1"] || !mine["job-12"] || !held["job-13"] || mine["job-13"] || !states[JobCompleted] || !states[JobQueued] {
		f.Fatalf("fixture: alice sees %v in states %v; want evicted, completed and queued jobs and bob's job-13 held", mine, states)
	}
	h := d.Handler()
	alsoAll := func(ids ...string) string { return url.Values{"also": ids}.Encode() }
	many := make([]string, maxAlso+1)
	for i := range many {
		many[i] = fmt.Sprintf("job-%d", i%14)
	}
	for _, q := range []string{
		"", alsoAll("job-12"), alsoAll("job-13", "job-1", "job-11", "job-0", "job-12", "job-11"),
		alsoAll(many[:maxAlso]...), alsoAll(many...), "also=%zz&also=job-12", "also=job-12;also=job-11",
		"also&also=&x=job-12", "ALSO=job-12", "also=job-012&also=job-%2B12",
	} {
		for _, id := range []string{"job-12", "job-9", "job-13", "job-1", "job-012", "", ".", "a/b", "%"} {
			f.Add(id, q)
		}
	}
	for _, id := range idSpellings {
		f.Add(id, "")
	}
	f.Fuzz(func(t *testing.T, id, query string) {
		if id == "" || id == "." || id == ".." {
			t.Skip("the mux answers itself: no segment for {id}, or a path it cleans and redirects")
		}
		req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/x", nil)
		req.URL.Path, req.URL.RawPath = "/api/v1/jobs/"+id, "/api/v1/jobs/"+url.PathEscape(id)
		req.URL.RawQuery = query
		req.Header.Set("Authorization", "Bearer "+alice.Token)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		vals, _ := url.ParseQuery(query) // what the handler reads, bad pairs dropped
		asked := vals["also"]
		want := http.StatusOK
		switch {
		case len(asked) > maxAlso:
			want = http.StatusBadRequest
		case !mine[id]:
			want = http.StatusNotFound
		}
		if rec.Code != want {
			t.Fatalf("GET %q ?%q answered %d, want %d: %s", id, query, rec.Code, want, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var reply struct {
			ID   string `json:"id"`
			Also []struct {
				ID string `json:"id"`
			} `json:"also"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("GET %q ?%q: %v: %s", id, query, err, rec.Body)
		}
		var got, wantAlso []string
		for _, a := range reply.Also {
			got = append(got, a.ID)
		}
		for _, a := range asked {
			if mine[a] {
				wantAlso = append(wantAlso, a)
			}
		}
		if reply.ID != id || !slices.Equal(got, wantAlso) {
			t.Fatalf("GET %q ?%q: reply is %q with also %v; want %q with also %v",
				id, query, reply.ID, got, id, wantAlso)
		}
	})
}
