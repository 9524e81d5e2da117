package daemon

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
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
