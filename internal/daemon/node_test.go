package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// nodeTuple is a non-default policy tuple on all four axes.
var nodeTuple = [4]string{"affinity:load=0.6:affinity=0.3:cap=0.1", "shortest-first", "slo-guard:wait=45s", "slo-urgency:deadline=120s"}

// nodeConfig is the daemon half both builds below share: a registry, a TSDB,
// a flight recorder, a program cache with setup cost and preemption on.
func nodeConfig(clk *simclock.Clock) Config {
	return Config{
		Clock: clk, Seed: 11, AdminToken: "admin", EnablePreemption: true,
		ProgramCache: 4, SetupSeconds: 2,
		Registry: telemetry.NewRegistry(), TSDB: telemetry.NewTSDB(24*time.Hour, 0),
		Flight: trace.NewFlightRecorder(32),
	}
}

// handWiredNode is the oracle: the fleet, the policy stages and the daemon
// wired one by one, the way every node was built before NewNode.
func handWiredNode(t *testing.T, partitions int) *Daemon {
	t.Helper()
	cfg := nodeConfig(simclock.New())
	fleet, err := device.NewFleet(partitions, device.Config{Clock: cfg.Clock, Seed: cfg.Seed,
		Registry: cfg.Registry, TSDB: cfg.TSDB, DriftInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Devices = fleet.Devices()
	if err := cfg.usePolicies(nodeTuple[0], nodeTuple[1], nodeTuple[2], nodeTuple[3]); err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// nodeScript drives d through its handler on its own clock — a session,
// mixed-class submits with a production preemption, a drain — and returns
// the devices listing, admin status, /metrics, a device series from the
// TSDB and one job's trace.
func nodeScript(t *testing.T, d *Daemon) string {
	t.Helper()
	h := d.Handler()
	var out strings.Builder
	do := func(method, path, token, body string) string {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "## %s %s -> %d\n%s\n", method, path, rec.Code, rec.Body)
		return rec.Body.String()
	}
	var sess struct{ Token string }
	if err := json.Unmarshal([]byte(do(http.MethodPost, "/api/v1/sessions", "", `{"user":"alice"}`)), &sess); err != nil {
		t.Fatal(err)
	}
	pin := d.Devices()[len(d.Devices())-1].ID()
	var first struct{ ID string }
	for i, f := range []string{`"class":"dev","device":"` + pin + `"`, `"class":"test","deadline_seconds":300`,
		`"class":"dev"`, `"class":"production","device":"` + pin + `"`, `"class":"dev","expected_qpu_seconds":25`} {
		body := do(http.MethodPost, "/api/v1/jobs", sess.Token, `{"program":`+string(payload(t, 20+5*(i%3)))+`,`+f+`}`)
		if i == 0 {
			if err := json.Unmarshal([]byte(body), &first); err != nil {
				t.Fatal(err)
			}
		}
		d.cfg.Clock.Advance(time.Second)
	}
	for step := 0; step < 60; step++ {
		d.cfg.Clock.Advance(5 * time.Second)
	}
	do(http.MethodGet, "/api/v1/devices", sess.Token, "")
	do(http.MethodGet, "/admin/v1/status", "admin", "")
	do(http.MethodGet, "/metrics", "", "")
	do(http.MethodGet, "/api/v1/metrics/query?name=qpu_calib_rabi_factor&window=1m&agg=mean&device="+pin, "", "")
	do(http.MethodGet, "/api/v1/trace/"+first.ID, sess.Token, "")
	return out.String()
}

// TestNewNodeMatchesHandWiring: NewNode builds exactly the node the
// hand-wired oracle does — same partitions, policies, telemetry and trace —
// so every reply of a scripted run is byte-equal.
func TestNewNodeMatchesHandWiring(t *testing.T) {
	for _, partitions := range []int{1, 3} {
		t.Run(fmt.Sprintf("partitions%d", partitions), func(t *testing.T) {
			want := nodeScript(t, handWiredNode(t, partitions))
			d, err := NewNode(NodeSpec{
				Partitions: partitions,
				// NewNode overwrites the shared fields; these must not leak.
				Device: device.Config{DriftInterval: time.Minute, Seed: 99, Clock: simclock.New()},
				Daemon: nodeConfig(simclock.New()),
				Router: nodeTuple[0], Scheduler: nodeTuple[1], Admission: nodeTuple[2], Priority: nodeTuple[3],
			})
			if err != nil {
				t.Fatal(err)
			}
			got := nodeScript(t, d)
			if got != want {
				t.Fatalf("NewNode differs from the hand-wired node:\n%s", firstDiff(want, got))
			}
			for _, check := range []string{`"stage":"preempted"`, "cache=hit", "qpu_up{", `"at_seconds":60`, nodeTuple[0], nodeTuple[3]} {
				if !strings.Contains(got, check) {
					t.Errorf("script output lacks %q: the differential exercises less than it claims", check)
				}
			}
		})
	}
}

func TestNewNodeErrors(t *testing.T) {
	base := func() NodeSpec { return NodeSpec{Partitions: 2, Daemon: Config{Clock: simclock.New()}} }
	for _, tc := range []struct {
		name, want string
		edit       func(*NodeSpec)
	}{
		{"no partitions", "at least 1 partition", func(s *NodeSpec) { s.Partitions = 0 }},
		{"unknown router", `router "coin-flip"`, func(s *NodeSpec) { s.Router = "coin-flip" }},
		{"setup without a cache", "SetupSeconds requires ProgramCache", func(s *NodeSpec) { s.Daemon.SetupSeconds = 3 }},
		{"NaN setup", "setup seconds NaN", func(s *NodeSpec) { s.Daemon.ProgramCache, s.Daemon.SetupSeconds = 4, math.NaN() }},
		{"infinite setup", "setup seconds +Inf", func(s *NodeSpec) { s.Daemon.ProgramCache, s.Daemon.SetupSeconds = 4, math.Inf(1) }},
	} {
		s := base()
		tc.edit(&s)
		if _, err := NewNode(s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
