package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

func testDaemonServer(t *testing.T) *httptest.Server {
	t.Helper()
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, err := device.New(device.Config{Clock: clk, Seed: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "tok", Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	go func() {
		for i := 0; i < 100; i++ {
			clk.Advance(time.Second)
		}
	}()
	return ts
}

func TestQctlSubcommands(t *testing.T) {
	ts := testDaemonServer(t)
	for _, args := range [][]string{
		{"status"},
		{"devices"},
		{"jobs"},
		{"metrics"},
		{"op", "recalibrate"},
		{"op", "qa_check"},
	} {
		if err := run(ts.URL, "tok", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

// TestQctlDevicesListing checks the fleet table contains every partition with
// status, utilization and queue depths — the per-partition view the CLI is
// expected to surface.
func TestQctlDevicesListing(t *testing.T) {
	d, err := daemon.NewNode(daemon.NodeSpec{
		Partitions: 3,
		Daemon:     daemon.Config{Clock: simclock.New(), Seed: 1, AdminToken: "tok"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	if err := devices(ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"analog-qpu-p0", "analog-qpu-p1", "analog-qpu-p2", "3 partition(s)", "least-loaded", "STATUS", "UTIL", "QUEUED", "online"} {
		if !strings.Contains(got, want) {
			t.Fatalf("devices output missing %q:\n%s", want, got)
		}
	}
	// The throwaway session must not linger.
	if n := d.AdminStatus().Sessions; n != 0 {
		t.Fatalf("devices listing leaked %d session(s)", n)
	}
}

// TestQctlJobsShowsRejected: the jobs table surfaces admission-shed jobs
// with their state and the policy's reason.
func TestQctlJobsShowsRejected(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "tok",
		Admission: admission.NewTokenBucketWith(map[sched.Class]admission.Quota{
			sched.ClassDev: {RatePerHour: 0.000001, Burst: 1},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)

	s, err := d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	prog := loadgen.BuildProgram(2, 2)
	payload, err := prog.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(s.Token, daemon.SubmitRequest{Program: payload, Class: sched.ClassDev}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(s.Token, daemon.SubmitRequest{Program: payload, Class: sched.ClassDev}); err == nil {
		t.Fatal("second dev job not shed")
	}

	var out bytes.Buffer
	if err := jobs(ts.URL, "tok", &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"jobs: 2", "STATE", "DETAIL", "rejected", "token-bucket", "running"} {
		if !strings.Contains(got, want) {
			t.Fatalf("jobs output missing %q:\n%s", want, got)
		}
	}
}

func TestQctlErrors(t *testing.T) {
	ts := testDaemonServer(t)
	if err := run(ts.URL, "wrong-token", []string{"status"}); err == nil {
		t.Fatal("bad token accepted")
	}
	if err := run(ts.URL, "tok", []string{"op"}); err == nil {
		t.Fatal("op without name accepted")
	}
	if err := run(ts.URL, "tok", []string{"op", "self-destruct"}); err == nil {
		t.Fatal("gated op accepted")
	}
	if err := run(ts.URL, "tok", []string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run("http://127.0.0.1:1", "tok", []string{"status"}); err == nil {
		t.Fatal("unreachable endpoint accepted")
	}
}
