package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/qir"
)

var updateGolden = flag.Bool("update", false, "regenerate cmd/qcsd/testdata/node.golden from this build")

// goldenRun drives one node's handler in-process on a clock advanced by hand
// (no pump), appending "## label: METHOD path -> code" and each body to a
// transcript.
type goldenRun struct {
	t     *testing.T
	h     http.Handler
	token string
	out   strings.Builder
}

func (g *goldenRun) record(label, method, path, body string) string {
	g.t.Helper()
	token := g.token
	if strings.HasPrefix(path, "/admin/") {
		token = "secret"
	}
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, req)
	fmt.Fprintf(&g.out, "## %s: %s %s -> %d\n%s", label, method, path, rec.Code, rec.Body)
	return rec.Body.String()
}

// submit records one POST /api/v1/jobs of a 2-atom π pulse and returns the
// job ID of the reply.
func (g *goldenRun) submit(label string, shots int, fields string) string {
	g.t.Helper()
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	raw, err := qir.NewAnalogProgram(seq, shots).MarshalJSON()
	if err != nil {
		g.t.Fatal(err)
	}
	out := g.record(label, http.MethodPost, "/api/v1/jobs", `{"program":`+string(raw)+fields+`}`)
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &j); err != nil || j.ID == "" {
		g.t.Fatalf("%s: no job ID in %q (%v)", label, out, err)
	}
	return j.ID
}

// TestNodeGolden pins the composition qcsd serves, byte for byte: a node
// built from flags — two partitions, round-robin routing, slo-guard
// admission, a 64-entry program cache, a 16-trace flight recorder — through
// a session, mixed-class submits with one production preemption, and a
// drain; then the devices listing, admin status, /metrics and one job's
// trace. Do not re-record it to make a change pass; `-update` is for adding
// a case.
func TestNodeGolden(t *testing.T) {
	n, err := testNode("-admin-token", "secret", "-devices", "2", "-seed", "7",
		"-router", "round-robin", "-admission", "slo-guard", "-program-cache", "64", "-trace-buffer", "16")
	if err != nil {
		t.Fatal(err)
	}
	g := &goldenRun{t: t, h: n.d.Handler()}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal([]byte(g.record("session", http.MethodPost, "/api/v1/sessions", `{"user":"alice"}`)), &sess); err != nil {
		t.Fatal(err)
	}
	g.token = sess.Token
	p0 := n.d.Devices()[0].ID()

	// One submit per simulated second.
	preempted := g.submit("dev, routed", 40, `,"class":"dev","expected_qpu_seconds":40`)
	n.clk.Advance(time.Second)
	g.submit("test, routed", 30, `,"class":"test","deadline_seconds":600`)
	n.clk.Advance(time.Second)
	g.submit("dev, pinned behind the first", 20, `,"class":"dev","device":"`+p0+`"`)
	n.clk.Advance(time.Second)
	g.submit("production preempts on the pin", 10, `,"class":"production","device":"`+p0+`"`)
	n.clk.Advance(time.Second)
	g.submit("dev, same program again", 40, `,"class":"dev"`)
	n.clk.Advance(time.Second)
	g.record("status, preempted", http.MethodGet, "/api/v1/jobs/"+preempted, "")
	g.record("devices, busy", http.MethodGet, "/api/v1/devices", "")
	for step := 0; step < 60; step++ {
		n.clk.Advance(5 * time.Second)
	}
	g.record("devices, drained", http.MethodGet, "/api/v1/devices", "")
	g.record("admin status, drained", http.MethodGet, "/admin/v1/status", "")
	g.record("metrics", http.MethodGet, "/metrics", "")
	g.record("trace of the preempted job", http.MethodGet, "/api/v1/trace/"+preempted, "")

	path := filepath.Join("testdata", "node.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(g.out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.out.String(); got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := range min(len(wl), len(gl)) {
			if wl[i] != gl[i] {
				t.Fatalf("node.golden differs from this run at line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("node.golden differs from this run in length: %d lines recorded, %d now", len(wl), len(gl))
	}
}
