package daemon

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "regenerate internal/daemon/testdata from this build")

// telemetryEnv is a 2-partition TimingOnly fleet under a daemon, both writing
// to one registry and one TSDB — the wiring cmd/qcsd uses.
type telemetryEnv struct {
	clk *simclock.Clock
	reg *telemetry.Registry
	db  *telemetry.TSDB
	d   *Daemon
}

func newTelemetryEnv(t *testing.T, reg *telemetry.Registry, db *telemetry.TSDB) *telemetryEnv {
	t.Helper()
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 31, Registry: reg, TSDB: db, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Router: NewRoundRobinRouter(), Clock: clk,
		AdminToken: "admin", EnablePreemption: true, Registry: reg, TSDB: db, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &telemetryEnv{clk: clk, reg: reg, db: db, d: d}
}

// script submits a backlog of mixed-class jobs (one production job preempts,
// one queued job is cancelled), drains it and runs on past two drift ticks,
// so every emitQueueTelemetry call site and every Device.emitTelemetry caller
// on the serving path fires at least once.
func (env *telemetryEnv) script(t *testing.T) {
	t.Helper()
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, class := range []sched.Class{sched.ClassDev, sched.ClassTest, sched.ClassDev, sched.ClassTest,
		sched.ClassDev, sched.ClassProduction, sched.ClassTest} {
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10+i), Class: class})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		env.clk.Advance(time.Second)
	}
	if err := env.d.CancelJob(s.Token, ids[len(ids)-1], false); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		env.clk.Advance(5 * time.Second)
	}
	for _, id := range ids[:len(ids)-1] {
		if j, err := env.d.JobStatus(s.Token, id); err != nil || j.State != JobCompleted {
			t.Fatalf("job %s = %+v, %v; want completed", id, j, err)
		}
	}
}

// dumpSeries renders every series the daemon and its devices write, one
// "at value" line per stored point, and fails if the database holds a series
// outside that list.
func (env *telemetryEnv) dumpSeries(t *testing.T) string {
	t.Helper()
	type ref struct {
		name   string
		labels telemetry.Labels
	}
	var refs []ref
	classes := []string{"dev", "test", "production"}
	for _, dev := range env.d.deviceIDs() {
		for _, c := range classes {
			refs = append(refs, ref{"daemon_device_queue_length", telemetry.Labels{"device": dev, "class": c}})
		}
		for _, name := range []string{"qpu_queue_length", "qpu_calib_rabi_factor", "qpu_calib_detuning_offset", "qpu_up"} {
			refs = append(refs, ref{name, telemetry.Labels{"device": dev}})
		}
	}
	for _, c := range classes {
		refs = append(refs, ref{"daemon_queue_length", telemetry.Labels{"class": c}})
	}
	if got := len(env.db.SeriesNames()); got != len(refs) {
		t.Fatalf("database holds %d series, the dump knows %d: %v", got, len(refs), env.db.SeriesNames())
	}
	var sb strings.Builder
	for _, r := range refs {
		keys := make([]string, 0, len(r.labels))
		for k, v := range r.labels {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "%s{%s}\n", r.name, strings.Join(keys, ","))
		for _, p := range env.db.Query(r.name, r.labels, 0, 1<<62) {
			fmt.Fprintf(&sb, "  %d %s\n", p.At, strconv.FormatFloat(p.Value, 'g', -1, 64))
		}
	}
	return sb.String()
}

// checkGolden compares got with testdata/<file>, or records it under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the recorded run:\n%s", file, firstDiff(string(want), got))
	}
}

// TestTelemetrySeriesGolden pins, point for point, what a scripted run
// stores in the TSDB and what /metrics exposes afterwards. The golden files
// were recorded before the TSDB had bound handles: a write path that skips,
// duplicates, reorders or mislabels a sample shows up as a diff.
func TestTelemetrySeriesGolden(t *testing.T) {
	env := newTelemetryEnv(t, telemetry.NewRegistry(), telemetry.NewTSDB(24*time.Hour, 0))
	env.script(t)
	checkGolden(t, "telemetry_series.golden", env.dumpSeries(t))
	checkGolden(t, "telemetry_expose.golden", env.reg.Expose())
}

// TestTelemetrySinksAreIndependent: the daemon and its devices construct and
// run with either sink, or both, left nil — every handle is nil-safe — and
// what one sink receives does not depend on whether the other is there.
func TestTelemetrySinksAreIndependent(t *testing.T) {
	newTelemetryEnv(t, nil, nil).script(t)

	tsdbOnly := newTelemetryEnv(t, nil, telemetry.NewTSDB(24*time.Hour, 0))
	tsdbOnly.script(t)
	checkGolden(t, "telemetry_series.golden", tsdbOnly.dumpSeries(t))

	registryOnly := newTelemetryEnv(t, telemetry.NewRegistry(), nil)
	registryOnly.script(t)
	checkGolden(t, "telemetry_expose.golden", registryOnly.reg.Expose())
}

// TestEmitQueueTelemetryAllocs: with both sinks on, sampling the fleet's
// queue depths — once per submit, dispatch and settle — allocates nothing.
func TestEmitQueueTelemetryAllocs(t *testing.T) {
	// A low maxPoints settles every series buffer within the warm-up.
	env := newTelemetryEnv(t, telemetry.NewRegistry(), telemetry.NewTSDB(0, 64))
	env.script(t)
	for i := 0; i < 256; i++ {
		env.d.emitQueueTelemetry()
	}
	if allocs := testing.AllocsPerRun(500, env.d.emitQueueTelemetry); allocs != 0 {
		t.Fatalf("emitQueueTelemetry allocates %v times per call", allocs)
	}
}

// firstDiff names the first line at which two dumps part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
