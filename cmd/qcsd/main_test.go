package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
)

// testNode boots a node the way main does: from command-line arguments,
// every flag not named keeping its default.
func testNode(args ...string) (*node, error) {
	var o options
	fs := flag.NewFlagSet("qcsd", flag.ContinueOnError)
	o.bind(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return newNode(o)
}

// TestHelpNamesEveryRegisteredPolicy: the -h text is generated from the
// policy registries, so every registered name on the three axes qcsd exposes
// must appear in it.
func TestHelpNamesEveryRegisteredPolicy(t *testing.T) {
	var o options
	var help strings.Builder
	fs := flag.NewFlagSet("qcsd", flag.ContinueOnError)
	fs.SetOutput(&help)
	o.bind(fs)
	fs.PrintDefaults()
	names := append(append(daemon.Routers.Names(), admission.Policies.Names()...), daemon.Priorities.Names()...)
	for _, name := range names {
		if !strings.Contains(help.String(), name) {
			t.Errorf("qcsd -h does not mention registered policy %q:\n%s", name, help.String())
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := testNode(); err == nil {
		t.Fatal("missing admin token accepted")
	}
	if _, err := testNode("-admin-token", "tok", "-timescale", "0"); err == nil {
		t.Fatal("zero timescale accepted")
	}
	if _, err := testNode("-admin-token", "tok", "-timescale", "-3"); err == nil {
		t.Fatal("negative timescale accepted")
	}
	// Each of these makes the pump's per-tick step overflow a time.Duration,
	// so simulated time would never advance.
	for _, ts := range []string{"NaN", "+Inf", "-Inf", "1e12"} {
		if _, err := testNode("-admin-token", "tok", "-timescale", ts); err == nil {
			t.Errorf("timescale %s accepted", ts)
		}
	}
	if _, err := testNode("-admin-token", "tok", "-devices", "0"); err == nil {
		t.Fatal("zero devices accepted")
	}
	if _, err := testNode("-admin-token", "tok", "-router", "coin-flip"); err == nil {
		t.Fatal("unknown router policy accepted")
	}
	if _, err := testNode("-admin-token", "tok", "-admission", "bouncer"); err == nil {
		t.Fatal("unknown admission policy accepted")
	}
}

// TestNodeFleetComposition boots a multi-partition node and checks the
// partitions surface through the fleet listing endpoint.
func TestNodeFleetComposition(t *testing.T) {
	n, err := testNode("-admin-token", "secret", "-seed", "7", "-devices", "3", "-router", "round-robin")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.d.Devices()); got != 3 {
		t.Fatalf("fleet size = %d", got)
	}
	srv := httptest.NewServer(n.d.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/v1/sessions", "application/json",
		strings.NewReader(`{"user":"alice"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/api/v1/devices", nil)
	req.Header.Set("Authorization", "Bearer "+sess.Token)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Router  string `json:"router"`
		Devices []struct {
			ID string `json:"id"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Router != "round-robin" || len(fleet.Devices) != 3 {
		t.Fatalf("fleet = %+v", fleet)
	}
	if fleet.Devices[0].ID == fleet.Devices[1].ID {
		t.Fatalf("partition IDs not unique: %+v", fleet.Devices)
	}
}

// TestNodeServesEndToEnd boots the exact composition the binary serves and
// walks the public surface: health, session, device characteristics, metrics
// and the admin plane behind the token.
func TestNodeServesEndToEnd(t *testing.T) {
	n, err := testNode("-admin-token", "secret", "-seed", "7", "-admission", "slo-guard")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.d.Handler())
	defer srv.Close()

	get := func(path string, hdr map[string]string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	if resp, _ := get("/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Open a session and read device characteristics through it.
	resp, err := http.Post(srv.URL+"/api/v1/sessions", "application/json",
		strings.NewReader(`{"user":"alice"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sess.Token == "" {
		t.Fatal("no session token returned")
	}
	if resp, body := get("/api/v1/devices", map[string]string{"Authorization": "Bearer " + sess.Token}); resp.StatusCode != http.StatusOK || !strings.Contains(body, "max_qubits") {
		t.Fatalf("devices = %d: %s", resp.StatusCode, body)
	}

	// Metrics exposition is public; the admin plane is gated.
	if resp, body := get("/metrics", nil); resp.StatusCode != http.StatusOK || !strings.Contains(body, "qpu_") {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if resp, _ := get("/admin/v1/status", nil); resp.StatusCode != http.StatusUnauthorized && resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated admin status = %d", resp.StatusCode)
	}
	if resp, body := get("/admin/v1/status", map[string]string{"Authorization": "Bearer secret"}); resp.StatusCode != http.StatusOK || !strings.Contains(body, "device") {
		t.Fatalf("admin status = %d: %s", resp.StatusCode, body)
	}

	// qcsd keeps the daemon's default allowlist: the ops qctl offers run,
	// the maintenance ops answer 403.
	for _, tc := range []struct {
		op   string
		want int
	}{{"recalibrate", http.StatusOK}, {"qa_check", http.StatusOK}, {"maintenance_on", http.StatusForbidden}} {
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/admin/v1/lowlevel/"+tc.op, nil)
		req.Header.Set("Authorization", "Bearer secret")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("op %s = %d, want %d", tc.op, resp.StatusCode, tc.want)
		}
	}
}

// TestPumpAdvancesSimTime verifies the timescale pump: simulated time moves
// forward by ~timescale× wall time while it runs, and stops when told.
func TestPumpAdvancesSimTime(t *testing.T) {
	n, err := testNode("-admin-token", "secret", "-timescale", "500")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go n.pump(500, time.Millisecond, stop)
	deadline := time.After(2 * time.Second)
	for n.clk.Now() < 100*time.Millisecond*500 {
		select {
		case <-deadline:
			t.Fatalf("pump advanced only %s in 2s wall", n.clk.Now())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	frozen := n.clk.Now()
	time.Sleep(20 * time.Millisecond)
	if drift := n.clk.Now() - frozen; drift > 500*10*time.Millisecond {
		t.Fatalf("clock advanced %s after stop", drift)
	}
}
