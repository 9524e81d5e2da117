// Command qcsd is the quantum access node middleware daemon (paper §3.3):
// it owns the QPU connection (here the device model), serves the user and
// admin REST APIs, and exposes the Prometheus metrics endpoint.
//
// Usage:
//
//	qcsd [-listen :8080] [-admin-token TOKEN] [-seed N] [-timescale X]
//	     [-devices N] [-router SPEC] [-admission SPEC] [-priority SPEC]
//	     [-program-cache N] [-setup S]
//	     [-trace-buffer N] [-debug-listen ADDR]
//
// -timescale compresses simulated device time: X simulated seconds advance
// per wall-clock second (default 10), so a 1 Hz-shot device is usable
// interactively.
//
// -devices sets the number of managed QPU partitions. -router, -admission and
// -priority each take a policy spec, name[:key=value...], on that axis's
// registry (internal/policy; `qcsd -h` prints every registered name and its
// parameters): how jobs are spread across the partitions (e.g. least-loaded,
// or the weighted scorer router affinity:load=0.6:affinity=0.3:cap=0.1), the
// load-shedding policy at the submit pipeline's door (e.g.
// slo-guard:wait=45s:warn=0.7, including lateness=F, the deadline-door factor
// for deadline-carrying submissions), and the dynamic-urgency axis that
// composes with the within-class order (e.g. slo-urgency:deadline=120s or
// edf:production=90s, the fallback deadlines for jobs that carry none).
//
// -program-cache sizes each partition's calibration-warm program cache in
// entries (0 disables it); -setup charges that many QPU seconds of cold
// setup on every cache miss (requires -program-cache > 0).
//
// -trace-buffer sizes the flight recorder: the daemon retains the last N
// terminal job traces for GET /api/v1/trace and `qctl trace <job>`
// (0 disables tracing).
//
// -debug-listen starts a separate debug mux with net/http/pprof endpoints
// on the given address (off by default; keep it off untrusted networks).
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// node is the assembled quantum access node: the middleware daemon in front
// of its simulated partitions, and the shared clock that a background pump
// advances against wall time.
type node struct {
	clk *simclock.Clock
	d   *daemon.Daemon
}

// options is everything the command line configures; the flag defaults are
// what a bare `qcsd -admin-token T` serves with. Every flag that shapes the
// node itself binds straight into spec.
type options struct {
	listen, debugListen string
	timescale           float64
	traceBuffer         int
	spec                daemon.NodeSpec
}

// bind registers every flag on fs. The policy flags' help lists come from the
// registries, so a newly registered policy shows up in -h by itself.
func (o *options) bind(fs *flag.FlagSet) {
	s := &o.spec
	fs.StringVar(&o.listen, "listen", ":8080", "address to serve the REST API on")
	fs.StringVar(&s.Daemon.AdminToken, "admin-token", "", "admin API token (required)")
	fs.Int64Var(&s.Daemon.Seed, "seed", 1, "device model seed")
	fs.Float64Var(&o.timescale, "timescale", 10, "simulated seconds per wall second")
	fs.IntVar(&s.Partitions, "devices", 1, "number of managed QPU partitions")
	fs.StringVar(&s.Router, "router", daemon.Routers.Default(), "fleet routing policy ("+daemon.Routers.Usage()+")")
	// 64 entries: large enough that an interactive session's re-runs stay
	// calibration-warm, small enough that a partition never pins more than a
	// screenful of programs.
	fs.IntVar(&s.Daemon.ProgramCache, "program-cache", 64, "per-partition calibration-warm program cache entries (0 disables)")
	fs.Float64Var(&s.Daemon.SetupSeconds, "setup", 0, "cold-setup QPU seconds charged on a program-cache miss (requires -program-cache > 0)")
	fs.StringVar(&s.Admission, "admission", admission.Policies.Default(), "admission policy ("+admission.Policies.Usage()+")")
	fs.StringVar(&s.Priority, "priority", daemon.Priorities.Default(), "dynamic-urgency scheduling axis ("+daemon.Priorities.Usage()+")")
	fs.IntVar(&o.traceBuffer, "trace-buffer", trace.DefaultFlightCapacity, "flight recorder size: retained terminal job traces (0 disables tracing)")
	fs.StringVar(&o.debugListen, "debug-listen", "", "serve net/http/pprof on this address (empty = off)")
}

// newNode completes the flags' spec with what qcsd always runs (preemption, a
// registry, a 24 h TSDB, the flight recorder) and builds the node. Split from
// main so tests can boot the same composition without sockets.
func newNode(o options) (*node, error) {
	c := &o.spec.Daemon
	if c.AdminToken == "" {
		return nil, fmt.Errorf("qcsd: -admin-token is required")
	}
	// The pump's per-tick step must be a time.Duration; NaN fails both tests.
	if !(o.timescale > 0 && float64(pumpTick)*o.timescale < math.MaxInt64) {
		return nil, fmt.Errorf("qcsd: -timescale must be positive, got %g", o.timescale)
	}
	c.Clock, c.EnablePreemption = simclock.New(), true
	c.Registry, c.TSDB = telemetry.NewRegistry(), telemetry.NewTSDB(24*time.Hour, 0)
	if o.traceBuffer > 0 {
		c.Flight = trace.NewFlightRecorder(o.traceBuffer)
	}
	d, err := daemon.NewNode(o.spec)
	if err != nil {
		return nil, fmt.Errorf("qcsd: %w", err)
	}
	return &node{clk: c.Clock, d: d}, nil
}

// pumpTick is the wall-clock interval at which qcsd's pump advances the clock.
const pumpTick = 100 * time.Millisecond

// pump advances simulated time by timescale seconds per wall second until
// stop is closed. tick controls the pump granularity.
func (n *node) pump(timescale float64, tick time.Duration, stop <-chan struct{}) {
	step := time.Duration(float64(tick) * timescale)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			n.clk.Advance(step)
		}
	}
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()

	n, err := newNode(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop := make(chan struct{})
	defer close(stop)
	go n.pump(o.timescale, pumpTick, stop)

	if o.debugListen != "" {
		// The profiler rides a separate mux on a separate listener, so
		// production API exposure never includes pprof by accident.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("qcsd: pprof debug mux on %s", o.debugListen)
			if err := http.ListenAndServe(o.debugListen, dbg); err != nil {
				log.Printf("qcsd: debug mux: %v", err)
			}
		}()
	}

	log.Printf("qcsd: serving %s ×%d (%s routing, %s admission, %s priority) on %s (timescale %gx)",
		n.d.Devices()[0].Spec().Name, len(n.d.Devices()), n.d.RouterName(), n.d.AdmissionName(), n.d.PriorityName(), o.listen, o.timescale)
	if err := http.ListenAndServe(o.listen, n.d.Handler()); err != nil {
		log.Fatalf("qcsd: %v", err)
	}
}
