package daemon

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// newFleetHTTPEnv hosts a 3-partition daemon on an httptest server with a
// background clock pump, mirroring newHTTPEnv.
func newFleetHTTPEnv(t *testing.T) (*Daemon, *device.Fleet, *httptest.Server) {
	t.Helper()
	clk := simclock.New()
	fleet, err := device.NewFleet(3, device.Config{Clock: clk, Seed: 21, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Clock: clk, AdminToken: "root-token",
		EnablePreemption: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				clk.Advance(5 * time.Second)
			}
		}
	}()
	return d, fleet, ts
}

// TestClientPartitionPinning exercises the QRMI client against the fleet
// API: acquisition against a named partition, task execution pinned there,
// and rejection of unknown partition names at acquire time.
func TestClientPartitionPinning(t *testing.T) {
	_, fleet, ts := newFleetHTTPEnv(t)
	ids := fleet.IDs()

	c, err := NewClient(ts.URL, "alice", sched.ClassTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != ids[1] {
		t.Fatalf("partitions = %v, want %v", got, ids)
	}

	c.Partition = ids[2]
	if _, err := c.Acquire(); err != nil {
		t.Fatalf("acquire against named partition: %v", err)
	}
	prog := new(qir.Program)
	if err := prog.UnmarshalJSON(payload(t, 10)); err != nil {
		t.Fatal(err)
	}
	raw, err := qrmi.RunProgram(c, prog, 200)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Counts.TotalShots() != 10 {
		t.Fatalf("shots = %d", raw.Counts.TotalShots())
	}

	c.Partition = "not-a-partition"
	if _, err := c.Acquire(); err == nil {
		t.Fatal("acquire against unknown partition accepted")
	}
	if _, err := c.TaskStart(payload(t, 5)); err == nil {
		t.Fatal("task start against unknown partition accepted")
	}
}

// TestLiveSettleForgetsDeviceTasks is the served side of the ownership rule
// "the daemon forgets a device task when it settles it": a thousand jobs
// through Handler() leave every partition's task table empty — before, each
// finished task's program, result and clock event stayed for the life of the
// process — while the daemon's own retention is untouched: every record is
// still listed and every result still fetched.
func TestLiveSettleForgetsDeviceTasks(t *testing.T) {
	clk := simclock.New()
	fleet, err := device.NewFleet(4, device.Config{Clock: clk, Seed: 5, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "root-token", EnablePreemption: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL, "alice", sched.ClassTest, nil)
	if err != nil {
		t.Fatal(err)
	}
	const jobs, burst = 1000, 50
	prog := payload(t, 10)
	ids := make([]string, 0, jobs)
	for len(ids) < jobs {
		for k := 0; k < burst; k++ {
			id, err := c.TaskStart(prog)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		// No pump goroutine: the clock only moves here, between requests,
		// far enough for the burst to drain (50 × 10 s over 4 partitions).
		clk.Advance(5 * time.Minute)
	}
	for _, dev := range fleet.Devices() {
		if left := dev.TaskIDs(); len(left) != 0 {
			t.Errorf("%s still holds %d task records, e.g. %s", dev.ID(), len(left), left[0])
		}
		if snap := dev.AdminSnapshot(); snap.TasksTotal == 0 {
			t.Errorf("%s ran nothing: the fleet was not exercised", dev.ID())
		}
	}
	listed := d.ListJobs()
	if len(listed) != jobs {
		t.Fatalf("ListJobs returns %d records, want all %d", len(listed), jobs)
	}
	for _, j := range listed {
		if j.State != JobCompleted {
			t.Fatalf("%s is %s, want completed", j.ID, j.State)
		}
	}
	for _, id := range []string{ids[0], ids[jobs/2], ids[jobs-1]} {
		raw, err := c.TaskResult(id)
		if err != nil || !strings.Contains(string(raw), `"timing-only"`) {
			t.Fatalf("result of %s after its task was forgotten: %q, %v", id, raw, err)
		}
	}
	code, body := httpDo(t, http.MethodGet, ts.URL+"/admin/v1/jobs", "root-token", nil)
	var viaHTTP []map[string]any
	if err := json.Unmarshal(body, &viaHTTP); code != http.StatusOK || err != nil || len(viaHTTP) != jobs {
		t.Fatalf("GET /admin/v1/jobs: status %d, %d records, err %v", code, len(viaHTTP), err)
	}
}

// TestClientMetadataFollowsPartition: a client pinned to a partition reads
// that partition's spec and calibration, not the first partition's; an
// unpinned client reads the first.
func TestClientMetadataFollowsPartition(t *testing.T) {
	d, err := NewNode(NodeSpec{Partitions: 2, Daemon: Config{Clock: simclock.New(), AdminToken: "adm"}})
	if err != nil {
		t.Fatal(err)
	}
	devs := d.Devices()
	devs[1].InjectCalibrationError(0.2, 0)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	rabi := func(partition string) float64 {
		t.Helper()
		c, err := NewClient(ts.URL, "alice", sched.ClassDev, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Partition = partition
		md, err := c.Metadata()
		if err != nil {
			t.Fatal(err)
		}
		var calib device.Calibration
		if err := json.Unmarshal([]byte(md["calibration"]), &calib); err != nil {
			t.Fatal(err)
		}
		return calib.RabiFactor
	}
	if got, want := rabi(devs[1].ID()), devs[1].CalibrationSnapshot().RabiFactor; got != want || want == devs[0].CalibrationSnapshot().RabiFactor {
		t.Fatalf("client pinned to %s reads rabi factor %g, want %g", devs[1].ID(), got, want)
	}
	if got, want := rabi(""), devs[0].CalibrationSnapshot().RabiFactor; got != want {
		t.Fatalf("unpinned client reads rabi factor %g, want the first partition's %g", got, want)
	}
}
