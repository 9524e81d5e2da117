package hpcqc

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment ID) plus the hot
// paths of the substrates. Run:
//
//	go test -bench=. -benchmem
//
// Reproduction benches report the experiment's headline numbers as custom
// metrics so `go test -bench` output doubles as the results table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcqc/internal/core"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/emulator"
	"hpcqc/internal/experiments"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
	"hpcqc/internal/workload"
)

// --- E1: Table 1 ---

// BenchmarkTable1PatternTaxonomy regenerates Table 1: pattern mixes under
// the hint-blind baseline and the hint-aware interleave policy.
func BenchmarkTable1PatternTaxonomy(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, _, err = experiments.RunTable1(42); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Mix == "mixed A+B+C" {
			key := "mixed_" + r.Policy.String()
			b.ReportMetric(r.QPUUtil, key+"_qpu_util")
			b.ReportMetric(r.Makespan.Seconds(), key+"_makespan_s")
		}
	}
}

// --- E2: Figure 1 ---

// BenchmarkFigure1Portability regenerates the portability figure: one
// program across develop / test / production environments.
func BenchmarkFigure1Portability(b *testing.B) {
	var rows []experiments.Figure1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunFigure1(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PZ2, "pz2_"+r.Resource)
	}
}

// --- E3: Figure 2 ---

// BenchmarkFigure2Architecture regenerates the architecture comparison:
// Slurm-only FIFO versus the daemon's second-level scheduling.
func BenchmarkFigure2Architecture(b *testing.B) {
	var rows []experiments.Figure2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunFigure2(13)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ProdMeanWait.Seconds(), "baseline_prod_wait_s")
	b.ReportMetric(rows[1].ProdMeanWait.Seconds(), "daemon_prod_wait_s")
	b.ReportMetric(rows[1].QPUUtil, "daemon_qpu_util")
}

// --- A1: bond-dimension ablation ---

// BenchmarkMPSBondDimension sweeps χ on quench dynamics per register size.
func BenchmarkMPSBondDimension(b *testing.B) {
	spec := qir.DefaultAnalogSpec()
	for _, n := range []int{8, 16, 32} {
		for _, chi := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("n%d/chi%d", n, chi), func(b *testing.B) {
				seq := qir.NewAnalogSequence(qir.LinearRegister("chain", n, 7))
				seq.Add(qir.GlobalRydberg, qir.Pulse{
					Amplitude: qir.ConstantWaveform{Dur: 200, Val: 2 * math.Pi},
					Detuning:  qir.ConstantWaveform{Dur: 200, Val: 0},
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := emulator.NewMPS(n, chi)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.EvolveAnalogTEBD(seq, spec.C6, 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- A2: shot-rate sweep ---

// BenchmarkShotRateSweep regenerates the shot-rate ablation.
func BenchmarkShotRateSweep(b *testing.B) {
	var rows []experiments.ShotRateRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, _, err = experiments.RunShotRateSweep(5); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == experiments.PolicyInterleave {
			b.ReportMetric(r.QPUUtil, fmt.Sprintf("util_interleave_%gHz", r.ShotRateHz))
		}
	}
}

// --- A3: GRES timeshares ---

// BenchmarkGRESTimeshare regenerates the fractional-QPU-share ablation.
func BenchmarkGRESTimeshare(b *testing.B) {
	var rows []experiments.GRESRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunGRESTimeshare(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Concurrency), fmt.Sprintf("concurrency_%dunits", r.UnitsPerJob))
	}
}

// --- A4: drift detection ---

// BenchmarkDriftDetection regenerates the telemetry drift-injection study.
func BenchmarkDriftDetection(b *testing.B) {
	var rows []experiments.DriftRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunDriftDetection(2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Detected {
			b.ReportMetric(r.DetectionDelay.Seconds(), fmt.Sprintf("delay_s_%.0fpct", r.InjectedDrift*100))
		}
	}
}

// --- A5: preemption ---

// BenchmarkPreemption regenerates the production-wait-under-flood study.
func BenchmarkPreemption(b *testing.B) {
	var rows []experiments.PreemptionRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, _, err = experiments.RunPreemption(9); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MaxProdWait.Seconds(), "max_prod_wait_s_"+r.Policy)
	}
}

// --- A8: expected-QPU-duration hints ---

// BenchmarkDurationHints regenerates the §3.5 duration-hint ablation:
// FIFO-within-class versus shortest-expected-first on an unequal backlog.
func BenchmarkDurationHints(b *testing.B) {
	var rows []experiments.HintsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunDurationHints(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.DevMeanWait.Seconds(), "dev_mean_wait_s_"+r.Setup)
	}
}

// --- A9: fair share across users ---

// BenchmarkFairShare regenerates the §4 fair-share ablation: a flooding user
// versus a casual user in the same class, FIFO versus least-served-first.
func BenchmarkFairShare(b *testing.B) {
	var rows []experiments.FairShareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunFairShare(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.CasualMeanWait.Seconds(), "casual_wait_s_"+r.Setup)
	}
}

// --- A6: SQD post-processing ---

// BenchmarkSQDPostprocessing regenerates the CC-heavy reference pipeline.
func BenchmarkSQDPostprocessing(b *testing.B) {
	var rows []experiments.SQDRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.RunSQD(4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.SubspaceCap == 512 {
			b.ReportMetric(r.Energy, "energy_"+r.Sampler)
		}
	}
}

// --- substrate hot paths ---

// BenchmarkStateVectorEvolution measures exact analog integration cost.
func BenchmarkStateVectorEvolution(b *testing.B) {
	spec := qir.DefaultAnalogSpec()
	for _, n := range []int{6, 10, 12} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			seq := qir.NewAnalogSequence(qir.LinearRegister("chain", n, 7))
			seq.Add(qir.GlobalRydberg, qir.Pulse{
				Amplitude: qir.BlackmanWaveform{Dur: 300, Peak: 2 * math.Pi},
				Detuning:  qir.ConstantWaveform{Dur: 300, Val: 0},
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv, err := emulator.NewStateVector(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := sv.EvolveAnalog(seq, spec.C6, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDigitalCircuitSV measures gate application throughput.
func BenchmarkDigitalCircuitSV(b *testing.B) {
	c := qir.NewCircuit(12)
	for layer := 0; layer < 10; layer++ {
		for q := 0; q < 12; q++ {
			c.RX(q, 0.3)
		}
		for q := 0; q < 11; q++ {
			c.CZ(q, q+1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, _ := emulator.NewStateVector(12)
		if err := sv.RunCircuit(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplexSVD measures the MPS truncation kernel.
func BenchmarkComplexSVD(b *testing.B) {
	for _, size := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			m := emulator.NewMatrix(size, size)
			for i := range m.Data {
				m.Data[i] = complex(float64((i*2654435761)%1000)/1000, float64((i*40503)%1000)/1000)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := emulator.SVD(&emulator.Matrix{Rows: size, Cols: size, Data: append([]complex128(nil), m.Data...)})
				if len(res.S) == 0 {
					b.Fatal("empty SVD")
				}
			}
		})
	}
}

// BenchmarkTSDBAppendQuery measures the telemetry store.
func BenchmarkTSDBAppendQuery(b *testing.B) {
	db := telemetry.NewTSDB(0, 1<<20)
	labels := telemetry.Labels{"device": "qpu"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Append("metric", labels, time.Duration(i)*time.Second, float64(i))
		if i%100 == 99 {
			db.Query("metric", labels, time.Duration(i-50)*time.Second, time.Duration(i)*time.Second)
		}
	}
}

// BenchmarkTSDBAppend measures one sample into a series that already holds a
// full retention window, by name (a label map built and rendered per sample,
// as every producer wrote before Bind) and through a bound handle.
// `make bench-diff` holds the bound path to 0 allocs/op.
func BenchmarkTSDBAppend(b *testing.B) {
	const window = 3600
	for _, path := range []struct {
		name string
		// on returns the sampler for a fresh database.
		on func(db *telemetry.TSDB) func(at time.Duration, v float64)
	}{
		{"by-name", func(db *telemetry.TSDB) func(time.Duration, float64) {
			return func(at time.Duration, v float64) {
				db.Append("qpu_queue_length", telemetry.Labels{"device": "analog-qpu-p0"}, at, v)
			}
		}},
		{"bound", func(db *telemetry.TSDB) func(time.Duration, float64) {
			return db.Bind("qpu_queue_length", telemetry.Labels{"device": "analog-qpu-p0"}).Append
		}},
	} {
		b.Run(path.name, func(b *testing.B) {
			sample := path.on(telemetry.NewTSDB(window*time.Second, 0))
			for i := 0; i < 2*window+b.N; i++ {
				if i == 2*window {
					b.ReportAllocs()
					b.ResetTimer()
				}
				sample(time.Duration(i)*time.Second, float64(i))
			}
		})
	}
}

// BenchmarkPrometheusExposition measures the scrape path.
func BenchmarkPrometheusExposition(b *testing.B) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 20; i++ {
		g := reg.MustGauge(fmt.Sprintf("metric_%d", i), "bench gauge")
		for j := 0; j < 10; j++ {
			g.Bind(telemetry.Labels{"shard": fmt.Sprintf("%d", j)}).Set(float64(i * j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := reg.Expose(); len(out) == 0 {
			b.Fatal("empty exposition")
		}
	}
}

// BenchmarkDaemonDispatch measures the middleware's submit→complete cycle on
// simulated time (no HTTP): the second-level scheduler's core loop.
func BenchmarkDaemonDispatch(b *testing.B) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 1, DriftInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	d, err := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "x", EnablePreemption: true})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := d.OpenSession("bench")
	if err != nil {
		b.Fatal(err)
	}
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	payload, err := qir.NewAnalogProgram(seq, 5).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Submit(sess.Token, daemon.SubmitRequest{Program: payload, Class: sched.ClassTest}); err != nil {
			b.Fatal(err)
		}
		clk.Advance(10 * time.Second)
	}
}

// BenchmarkFleetDispatch measures multi-partition job throughput: the same
// batch of jobs dispatched onto fleets of 1, 2 and 4 QPU partitions under
// least-loaded routing. Two metrics matter: jobs per simulated second — with
// partitions executing concurrently on the simulation clock, throughput
// should scale near-linearly (the acceptance bar is ≥2× at 4 partitions,
// enforced by daemon.TestFleetThroughputScaling) — and jobs per wall-clock
// second, the real dispatch cost per fleet size. The drain loop jumps the
// clock straight to each next scheduled event and detects quiescence with a
// terminal-event counter; the earlier fixed-step ListJobs polling put a flat
// ~13 ms of probe overhead on every run, hiding the per-device dispatch cost
// the wall metric exists to expose.
func BenchmarkFleetDispatch(b *testing.B) {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	payload, err := qir.NewAnalogProgram(seq, 20).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	const jobs = 32
	for _, devices := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("devices%d", devices), func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				clk := simclock.New()
				terminal := 0
				d, err := daemon.NewNode(daemon.NodeSpec{
					Partitions: devices,
					Device:     device.Config{DriftInterval: time.Hour},
					Daemon: daemon.Config{
						Clock: clk, Seed: 1, AdminToken: "x", EnablePreemption: true,
						JobListener: func(ev daemon.JobEvent) {
							if ev.Type == daemon.JobEventFinished || ev.Type == daemon.JobEventRejected {
								terminal++
							}
						},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				sess, err := d.OpenSession("bench")
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < jobs; j++ {
					if _, err := d.Submit(sess.Token, daemon.SubmitRequest{Program: payload, Class: sched.ClassTest}); err != nil {
						b.Fatal(err)
					}
				}
				for terminal < jobs {
					next, ok := clk.NextEventAt()
					if !ok {
						b.Fatalf("event queue drained with %d/%d jobs terminal", terminal, jobs)
					}
					if next > 24*time.Hour {
						b.Fatal("fleet did not drain")
					}
					clk.RunUntil(next)
				}
				makespan = clk.Now()
			}
			b.ReportMetric(float64(jobs)/makespan.Seconds(), "jobs_per_sim_s")
			b.ReportMetric(makespan.Seconds(), "sim_makespan_s")
			b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
		})
	}
}

// BenchmarkServedSubmit is the served write path in one process, and the
// standing way to profile it (`go test -run '^$' -bench ServedSubmit
// -cpuprofile cpu.out -memprofile mem.out .`): an httptest server over
// daemon.Handler(), two closed-loop daemon.Clients on one keep-alive
// connection each, and a 4-partition TimingOnly fleet wired as cmd/qcsd wires
// its node — registry, TSDB, flight recorder, 64-entry program cache. The
// virtual clock is pumped from event to event while a job is outstanding, so
// wall time is the middleware's and not a timer's. One op is one job:
// TaskStart in bursts of 8, then TaskStatus until terminal and TaskResult;
// http_requests_per_job counts what that costs on the wire (one POST, a share
// of the status polls — each names the rest of the burst, and its reply
// settles every job that has ended — and no result request); cmd/benchdiff
// fails it above 1.5.
// It mirrors the `serve-submit` workload of the benchmark/ module, which is
// the number of record; this one is for looking inside.
func BenchmarkServedSubmit(b *testing.B) {
	benchServed(b, servedShape{clients: 2, programs: 48, burst: 8})
}

// BenchmarkServedSubmitSerial is the same path with one task outstanding per
// client — qrmi.RunProgram's shape, and the traffic the batched poll has
// nothing to offer: every job costs its POST and its own polls (≥ 2 requests).
// It is here so that what the burst gains is not taken from this caller.
func BenchmarkServedSubmitSerial(b *testing.B) {
	benchServed(b, servedShape{clients: 2, programs: 48, burst: 1})
}

// BenchmarkServedMixed is the `serve-mixed` workload's shape, for looking
// inside it: one client cycling 1 024 distinct programs in bursts of 8 while
// an operator makes 12 GETs per burst over /metrics, /admin/v1/status and
// /api/v1/devices. The menu is larger than any per-entry bound a decode memo
// might have, and the scrapes run beside the submits: what an operator's
// reads cost the submitter shows here, in allocs_per_job above all (a count,
// the same on any box, which cmd/benchdiff caps).
func BenchmarkServedMixed(b *testing.B) {
	benchServed(b, servedShape{clients: 1, programs: 1024, burst: 8, operator: true})
}

// BenchmarkServedLadder is BenchmarkServedSubmit's traffic at 1, 2, 8 and 32
// closed-loop clients, one keep-alive connection each: how the served path
// scales with concurrent sessions. Each rung reports jobs_per_wall_s (which
// cmd/benchdiff judges), the p99 of a TaskStart round trip, and the time
// goroutines spent blocked on mutexes per job (runtime/metrics
// /sync/mutex/wait/total:seconds), which is where serialization in the
// daemon shows before throughput does.
func BenchmarkServedLadder(b *testing.B) {
	for _, clients := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServed(b, servedShape{clients: clients, programs: 48, burst: 8, rung: true})
		})
	}
}

// servedShape is one traffic mix over the served path: closed-loop clients
// cycling through a menu of distinct programs, burst TaskStarts at a time.
type servedShape struct {
	clients, programs, burst int
	// operator adds a connection that walks the three read endpoints four
	// times while each burst of the (single) client is in flight.
	operator bool
	// rung reports what BenchmarkServedLadder compares across client counts.
	rung bool
}

func benchServed(b *testing.B, shape servedShape) {
	const devices, adminToken = 4, "bench"
	clients, programs, burst := shape.clients, shape.programs, shape.burst
	// The warm-up submits every program at least once: connections open, heap grown,
	// decode memo holding what it can.
	warmup := max(256, programs)
	clk := simclock.New()
	var outstanding atomic.Int64
	// wake holds one pending signal: a second submit while one is pending
	// needs no second wake-up.
	wake, stop, pumped := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
	d, err := daemon.NewNode(daemon.NodeSpec{
		Partitions: devices,
		Device:     device.Config{TimingOnly: true},
		Daemon: daemon.Config{
			Clock: clk, AdminToken: adminToken, EnablePreemption: true, ProgramCache: 64,
			Registry: telemetry.NewRegistry(), TSDB: telemetry.NewTSDB(24*time.Hour, 0),
			Flight: trace.NewFlightRecorder(trace.DefaultFlightCapacity), Seed: 1,
			// Runs inside the world: count and signal, nothing else.
			JobListener: func(ev daemon.JobEvent) {
				switch ev.Type {
				case daemon.JobEventSubmitted:
					outstanding.Add(1)
					select {
					case wake <- struct{}{}:
					default:
					}
				case daemon.JobEventFinished:
					outstanding.Add(-1)
				}
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	var requests atomic.Int64
	handler := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	go func() {
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			case <-wake:
			}
			for outstanding.Load() > 0 {
				next, ok := clk.NextEventAt()
				if !ok {
					break
				}
				clk.RunUntil(next)
			}
		}
	}()
	defer func() {
		close(stop)
		<-pumped
	}()

	menu := make([][]byte, programs)
	for i := range menu {
		if menu[i], err = loadgen.BuildProgram(1+i%4, 10+i/4).MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
	oneConn := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	subs := make([]*daemon.Client, clients)
	for i := range subs {
		class := sched.ClassTest
		if i%2 == 1 {
			class = sched.ClassDev
		}
		if subs[i], err = daemon.NewClient(srv.URL, fmt.Sprintf("user%d", i), class, oneConn()); err != nil {
			b.Fatal(err)
		}
	}
	// scrape starts the operator's reads for one burst and returns where
	// their outcome will arrive; nil without an operator.
	scrape := func() <-chan error { return nil }
	if shape.operator {
		hc := oneConn()
		op, err := daemon.NewClient(srv.URL, "operator", sched.ClassDev, hc)
		if err != nil {
			b.Fatal(err)
		}
		targets := [3][2]string{{"/metrics", ""}, {"/admin/v1/status", adminToken}, {"/api/v1/devices", op.SessionToken()}}
		get := func(path, token string) error {
			req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
			if err != nil {
				return err
			}
			if token != "" {
				req.Header.Set("Authorization", "Bearer "+token)
			}
			resp, err := hc.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
			}
			return nil
		}
		scrape = func() <-chan error {
			out := make(chan error, 1)
			go func() {
				for i := 0; i < 4*len(targets); i++ {
					if err := get(targets[i%len(targets)][0], targets[i%len(targets)][1]); err != nil {
						out <- err
						return
					}
				}
				out <- nil
			}()
			return out
		}
	}
	// starts holds each client's TaskStart round trips, for a rung's p99.
	starts := make([][]time.Duration, clients)
	// serve runs n jobs through client c, starting at its own place in the menu.
	serve := func(c *daemon.Client, who, next, n int) (err error) {
		ids := make([]string, burst)
		for done := 0; done < n; done += burst {
			scraped := scrape()
			k := min(burst, n-done)
			for i := 0; i < k; i++ {
				began := time.Now()
				if ids[i], err = c.TaskStart(menu[next%programs]); err != nil {
					return err
				}
				if shape.rung {
					starts[who] = append(starts[who], time.Since(began))
				}
				next++
			}
			for _, id := range ids[:k] {
				for state := qrmi.StateQueued; !state.Terminal(); {
					if state, err = c.TaskStatus(id); err != nil {
						return err
					}
					if !state.Terminal() {
						runtime.Gosched()
					}
				}
				if res, err := c.TaskResult(id); err != nil || !json.Valid(res) {
					return fmt.Errorf("job %s: result %q, %v", id, res, err)
				}
			}
			if scraped != nil {
				if err := <-scraped; err != nil {
					return err
				}
			}
		}
		return nil
	}
	drive := func(n int) {
		var wg sync.WaitGroup
		for i, c := range subs {
			share := n / clients
			if i < n%clients {
				share++
			}
			wg.Add(1)
			go func(i int, c *daemon.Client) {
				defer wg.Done()
				if err := serve(c, i, i*programs/clients, share); err != nil {
					b.Error(err)
				}
			}(i, c)
		}
		wg.Wait()
	}
	drive(warmup)
	b.ReportAllocs()
	requests.Store(0)
	for i := range starts {
		starts[i] = starts[i][:0]
	}
	mutexWait := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(mutexWait)
	waited := mutexWait[0].Value.Float64()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	drive(b.N)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "served_jobs_per_wall_s")
	b.ReportMetric(float64(requests.Load())/float64(b.N), "http_requests_per_job")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(b.N), "allocs_per_job")
	if shape.rung {
		metrics.Read(mutexWait)
		all := slices.Concat(starts...)
		slices.Sort(all)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
		b.ReportMetric(float64(all[(len(all)-1)*99/100].Microseconds()), "submit_p99_us")
		b.ReportMetric((mutexWait[0].Value.Float64()-waited)*1e6/float64(b.N), "mutex_wait_us_per_job")
	}
}

// --- L1: trace-driven load generation ---

// BenchmarkLoadgenReplay measures one deterministic trace replay end to end:
// a 2-hour Poisson trace through the fleet daemon on the virtual clock. The
// headline metric is replayed jobs per wall second — the hot path the what-if
// sweep multiplies by the policy-matrix size.
func BenchmarkLoadgenReplay(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 2 * time.Hour,
		Process: &loadgen.Poisson{RatePerHour: 150},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{Devices: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
	b.ReportMetric(float64(rep.Completed), "jobs_completed")
}

// BenchmarkLoadgenReplayAffinity measures the replay hot path with the
// program cache and the affinity router engaged on a repeated-program trace
// (the parameter-sweep workload shape the cache exists for): per-partition
// LRU touches, warm-set probes in every pick, and hit/miss accounting in the
// analyzer. cache_hit_rate is reported for trajectory; jobs_per_wall_s is the
// guarded metric — the cache must not buy its hit rate with dispatch-path
// allocation.
func BenchmarkLoadgenReplayAffinity(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 2 * time.Hour,
		Process:  &loadgen.Poisson{RatePerHour: 150},
		Programs: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 4, Seed: 1, Router: "affinity",
			ProgramCache: 8, SetupSeconds: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
	b.ReportMetric(rep.ProgramCacheHitRate, "cache_hit_rate")
	b.ReportMetric(float64(rep.Completed), "jobs_completed")
}

// BenchmarkLoadgenReplayTraced measures the same 2-hour replay with tracing
// enabled — the `--tracing` default every qcload replay and sweep cell pays:
// span emission through the whole pipeline plus per-stage latency
// attribution in the SLO analyzer.
//
// Each iteration runs a traced and an untraced replay back to back and the
// benchmark reports their ratio as trace_overhead_pct — interleaving makes
// the number immune to the heap-growth/GC-pacing drift that skews
// comparisons between benchmarks run minutes apart in the same process.
// benchdiff's traceOverhead rule gates that metric in CI. allocs/op and
// B/op are measured around the traced replay only (the span pipeline's
// allocation budget), overriding the framework's combined numbers.
func BenchmarkLoadgenReplayTraced(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 2 * time.Hour,
		Process: &loadgen.Poisson{RatePerHour: 150},
	})
	if err != nil {
		b.Fatal(err)
	}
	// ReportAllocs makes the framework print the B/op and allocs/op columns;
	// the ReportMetric overrides below replace its pair-combined numbers with
	// the traced replay's own.
	b.ReportAllocs()
	b.ResetTimer()
	var rep *loadgen.Report
	var tOn, tOff time.Duration
	var mallocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 4, Seed: 1, Tracing: true,
		})
		tOn += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		t0 = time.Now()
		if _, err := loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 4, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
		tOff += time.Since(t0)
	}
	if len(rep.PerClass["production"].Stages) == 0 {
		b.Fatal("traced replay reported no stage attribution")
	}
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "B/op")
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/tOn.Seconds(), "jobs_per_wall_s")
	b.ReportMetric(float64(rep.Completed), "jobs_completed")
	b.ReportMetric((tOn.Seconds()/tOff.Seconds()-1)*100, "trace_overhead_pct")
}

// BenchmarkLoadgenReplayPriority measures the deadline-urgency scheduling
// axis on the replay hot path: a 2-hour deadline-stamped trace replayed
// under slo-urgency. Unlike the constant default — which short-circuits onto
// the legacy pop — a live priority policy re-scores the winning class's
// backlog on every dispatch, so this is the axis's worst-case dispatch cost.
//
// Each iteration runs an slo-urgency and a constant (fifo-equivalent) replay
// back to back and reports their cost ratio as priority_overhead_pct;
// benchdiff's priorityOverhead rule gates that metric in CI at 10%, the
// same interleaved-ratio construction the tracing gate uses (immune to
// machine speed across files and heap drift within a run). allocs/op and
// B/op are measured around the slo-urgency replay only — scoring must not
// put allocation on the pop path.
func BenchmarkLoadgenReplayPriority(b *testing.B) {
	proc, err := loadgen.NewProcess("bursty", 150)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 2 * time.Hour,
		Process:   proc,
		Deadlines: workload.DefaultDeadlines(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *loadgen.Report
	var tOn, tOff time.Duration
	var mallocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 2, Seed: 1, Priority: "slo-urgency",
		})
		tOn += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		t0 = time.Now()
		if _, err := loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 2, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
		tOff += time.Since(t0)
	}
	prod := rep.PerClass["production"]
	if prod == nil || prod.DeadlineJobs == 0 {
		b.Fatal("priority replay reported no deadline accounting")
	}
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/op")
	b.ReportMetric(float64(bytes)/float64(b.N), "B/op")
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/tOn.Seconds(), "jobs_per_wall_s")
	b.ReportMetric(prod.DeadlineHitRate, "prod_deadline_hit_rate")
	b.ReportMetric((tOn.Seconds()/tOff.Seconds()-1)*100, "priority_overhead_pct")
}

// BenchmarkLoadgenReplayBacklog is the replay benchmark in the regime the
// middleware exists for (§3.3): one QPU about 7× overloaded for twelve hours,
// so the backlog climbs past 6 000 jobs and every dispatch extracts from deep
// inside it. It runs fair-share, the order whose rank moves between pops
// (per-user lanes weighted by live usage) and whose linear scan used to cost
// 20× the fifo replay at this depth. Guarded by benchdiff: jobs_per_wall_s
// must stay within reach of BenchmarkLoadgenReplay's, not a backlog-depth
// below it.
func BenchmarkLoadgenReplayBacklog(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 12 * time.Hour,
		Process:   &loadgen.Poisson{RatePerHour: 600},
		Deadlines: workload.DefaultDeadlines(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 1, Seed: 1, Scheduler: "fair-share",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
	b.ReportMetric(float64(rep.Completed), "jobs_completed")
}

// BenchmarkLoadgenReplayLong is the replay benchmark at the length sites
// actually size fleets with: four weeks of Poisson arrivals (≈100 k jobs) on
// four partitions at utilisation ≈ 0.45, so queues stay empty and almost
// every job is terminal almost all of the time. What it guards is retention:
// peak_heap_mb is the trace plus the analyzer's per-job samples plus the jobs
// in flight — not every record the run has seen (DESIGN §5 INV-R1) — and
// jobs_per_wall_s shows the collector no longer marking that history. The
// peak includes the trace this process generated, on both sides of a diff.
// allocs_per_job is a count, the same on any box, and benchdiff caps it: the
// replay hot path owns or reuses its clock events, routing snapshot, device
// task records and timing-only result maps, and Submit returns by value
// (EXPERIMENTS.md h-replay-allocs, h-sweep-allocs).
func BenchmarkLoadgenReplayLong(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 672 * time.Hour,
		Process: &loadgen.Poisson{RatePerHour: 150},
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(tr.Records) < 100000 {
		b.Fatalf("trace has %d jobs, want ≥ 100000", len(tr.Records))
	}
	heapPeak := trackHeapPeak()
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{Devices: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(len(tr.Records)*b.N), "allocs_per_job")
	b.ReportMetric(heapPeak(), "peak_heap_mb")
	b.ReportMetric(float64(rep.Completed), "jobs_completed")
}

// BenchmarkLoadgenReplayStream is BenchmarkLoadgenReplayLong the way `qcload
// replay` runs it: the same ≈100 k-job trace streamed from a file through
// loadgen.ReplayReader, each record decoded when its arrival fires. The trace
// is written out and dropped from the heap before timing, so peak_heap_mb is
// what the replay itself holds — the jobs in flight and the analyzer's
// per-job samples, not the trace (DESIGN §5 INV-R1) — and benchdiff judges it
// lower-is-better beside jobs_per_wall_s.
func BenchmarkLoadgenReplayStream(b *testing.B) {
	path := filepath.Join(b.TempDir(), "long.jsonl")
	jobs, err := func() (int, error) {
		tr, err := loadgen.Generate(loadgen.Config{
			Seed: 1, Horizon: 672 * time.Hour,
			Process: &loadgen.Poisson{RatePerHour: 150},
		})
		if err != nil {
			return 0, err
		}
		return len(tr.Records), tr.WriteFile(path)
	}()
	if err != nil {
		b.Fatal(err)
	}
	heapPeak := trackHeapPeak()
	b.ReportAllocs()
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		rep, err = loadgen.ReplayReader(f, loadgen.ReplayConfig{Devices: 4, Seed: 1})
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.Completed != jobs {
		b.Fatalf("streamed replay completed %d of %d jobs", rep.Completed, jobs)
	}
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
	b.ReportMetric(heapPeak(), "peak_heap_mb")
}

// BenchmarkLoadgenReadTrace is the decode layer of the trace file → replay →
// report path on its own: the long unsaturated trace of
// BenchmarkLoadgenReplayLong read from memory. `canonical` is the file as
// Trace.Write emits it, every line of which the record scanner in
// loadgen.ReadTrace decodes itself; `fallback` is the same records with a
// space after each colon, valid JSON the scanner declines line by line, so
// it prices the encoding/json path every foreign or hand-edited trace takes
// (DESIGN §6). Bars: canonical ≤ 600 ns/record and ≤ 0.01 allocs/record — the
// Records slice, the interned strings and the line buffer, nothing per line.
func BenchmarkLoadgenReadTrace(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 672 * time.Hour,
		Process: &loadgen.Poisson{RatePerHour: 150},
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	canonical := buf.Bytes()
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"canonical", canonical},
		{"fallback", bytes.ReplaceAll(canonical, []byte(`":`), []byte(`": `))},
	} {
		b.Run(in.name, func(b *testing.B) {
			var before, after runtime.MemStats
			b.SetBytes(int64(len(in.data)))
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := loadgen.ReadTrace(bytes.NewReader(in.data))
				if err != nil {
					b.Fatal(err)
				}
				if len(got.Records) != len(tr.Records) {
					b.Fatalf("read %d records, wrote %d", len(got.Records), len(tr.Records))
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			records := float64(len(tr.Records)) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
		})
	}
}

// BenchmarkLoadgenReplayRecorded additionally attaches a flight recorder
// sized to retain every job trace — the `qcload trace export` configuration,
// the most expensive consumer (every span is stored, not just aggregated).
// Not CI-gated, since exports are one-shot flows rather than the sweep hot
// path.
func BenchmarkLoadgenReplayRecorded(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 1, Horizon: 2 * time.Hour,
		Process: &loadgen.Poisson{RatePerHour: 150},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *loadgen.Report
	for i := 0; i < b.N; i++ {
		rec := trace.NewFlightRecorder(len(tr.Records))
		rep, err = loadgen.Replay(tr, loadgen.ReplayConfig{
			Devices: 4, Seed: 1,
			Tracing: true, SpanListener: rec.Observe,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, done := rec.Len(); done == 0 {
			b.Fatal("flight recorder captured no terminal traces")
		}
	}
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "jobs_per_wall_s")
	b.ReportMetric(float64(rep.Completed), "jobs_completed")
}

// BenchmarkLoadgenSweep measures the full router × scheduler what-if matrix
// over a bursty 2-hour trace — the qcload sweep core.
func BenchmarkLoadgenSweep(b *testing.B) {
	proc, err := loadgen.NewProcess("bursty", 150)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := loadgen.Generate(loadgen.Config{Seed: 2, Horizon: 2 * time.Hour, Process: proc})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep *loadgen.SweepReport
	for i := 0; i < b.N; i++ {
		rep, err = loadgen.Sweep(tr, loadgen.SweepConfig{Devices: 4, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Results)), "policy_pairs")
	b.ReportMetric(float64(len(tr.Records)*len(rep.Results))*float64(b.N)/b.Elapsed().Seconds(), "replayed_jobs_per_wall_s")
}

// sampleHeapPeak polls the live heap until stop closes, recording the high
// water mark. ReadMemStats stops the world, so the 5 ms cadence keeps the
// sampler's own cost in the noise while still catching a sweep's steady-state
// peak (cells run for much longer than the sampling interval).
func sampleHeapPeak(stop <-chan struct{}, peak *uint64) {
	var ms runtime.MemStats
	for {
		select {
		case <-stop:
			return
		default:
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > *peak {
			*peak = ms.HeapAlloc
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// trackHeapPeak collects garbage, starts the sampler and returns the function
// that stops it and yields the high-water mark in MB.
func trackHeapPeak() (stop func() float64) {
	runtime.GC()
	halt := make(chan struct{})
	done := make(chan struct{})
	var peak uint64
	go func() {
		defer close(done)
		sampleHeapPeak(halt, &peak)
	}()
	return func() float64 {
		close(halt)
		<-done
		return float64(peak) / (1 << 20)
	}
}

// BenchmarkSweepWideMatrix measures the bounded-memory sweep engine at the
// scale it exists for: a thousand-cell generalized-axis matrix (3 routers ×
// 3 schedulers × 4 admissions × 2 priorities × 2 fleets × 2 preemption × 2
// rate scales × 2 shot scales = 1152 cells) over a 30-minute trace. The two
// guarded metrics are cells_per_wall_s — throughput of the worker pool over
// the shared prepared trace — and peak_heap_mb, the live-heap high water
// mark that the per-cell pooling keeps O(workers) instead of O(cells).
// allocs_per_job is heap allocations over the jobs the cells replayed, a
// count benchdiff caps: a replayed job allocates only what outlives it
// (EXPERIMENTS.md h-sweep-allocs).
func BenchmarkSweepWideMatrix(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 7, Horizon: 30 * time.Minute,
		Process: &loadgen.Poisson{RatePerHour: 240},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := loadgen.SweepConfig{
		Devices:     4,
		Seed:        3,
		Priorities:  []string{"constant", "age"},
		FleetSizes:  []int{2, 4},
		Preemptions: []string{"on", "off"},
		RateScales:  []float64{1, 2},
		ShotScales:  []float64{1, 2},
	}
	heapPeak := trackHeapPeak()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	cells, jobs := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := loadgen.Sweep(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(rep.Results)
		for _, cell := range rep.Results {
			jobs += cell.Jobs
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells_per_wall_s")
	b.ReportMetric(heapPeak(), "peak_heap_mb")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(jobs), "allocs_per_job")
}

// BenchmarkSaturateSearch measures the capacity-frontier search: nine policy
// tuples (3 routers × 3 schedulers) knee-hunted over a 1-hour trace. The
// probe count per knee is adaptive but deterministic, so knees_per_wall_s is
// the end-to-end planning throughput and probes_per_knee the search cost the
// binary-search bracketing keeps logarithmic in MaxScale.
func BenchmarkSaturateSearch(b *testing.B) {
	tr, err := loadgen.Generate(loadgen.Config{
		Seed: 11, Horizon: time.Hour,
		Process: &loadgen.Poisson{RatePerHour: 120},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := loadgen.SaturateConfig{
		SweepConfig: loadgen.SweepConfig{Seed: 11, Admissions: []string{"accept-all"}, FleetSizes: []int{2}},
		MaxScale:    16,
		Tolerance:   0.2,
	}
	b.ResetTimer()
	knees, probes := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := loadgen.Saturate(tr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		knees += len(rep.Points)
		for _, pt := range rep.Points {
			probes += pt.Probes
		}
	}
	b.ReportMetric(float64(knees)/b.Elapsed().Seconds(), "knees_per_wall_s")
	b.ReportMetric(float64(probes)/float64(knees), "probes_per_knee")
}

// BenchmarkRuntimeExecute measures the full runtime path (resolve done once,
// execute per iteration) on the local emulator.
func BenchmarkRuntimeExecute(b *testing.B) {
	rt, err := core.NewRuntimeFor("local-sv", "", []string{"QRMI_SEED=1"})
	if err != nil {
		b.Fatal(err)
	}
	p := qir.NewDigitalProgram(qir.NewCircuit(4).H(0).CX(0, 1).CX(1, 2).CX(2, 3), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Execute(p); err != nil {
			b.Fatal(err)
		}
	}
}
