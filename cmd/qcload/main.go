// Command qcload is the trace-driven load-generation and policy what-if
// toolchain for the middleware fleet:
//
//	qcload gen     --out trace.jsonl [--process poisson|bursty|diurnal]
//	               [--rate 150] [--duration 24h] [--seed 1] [--users 8]
//	               [--class-mix 1:2:7] [--pattern-mix 1:1:2] [--programs N]
//	               [--deadlines]
//	qcload capture --out trace.jsonl [--router SPEC] [--scheduler SPEC]
//	               [--admission SPEC] [--duration 24h] [--users 16]
//	               [--think 5m] [--devices 4] [--seed 1]
//	qcload import  --in jobs.swf --out trace.jsonl [--format swf|sacct]
//	               [--scale 1.0] [--max-jobs N]
//	qcload info    --trace trace.jsonl
//	qcload replay  --trace trace.jsonl [--router SPEC] [--scheduler SPEC]
//	               [--admission SPEC] [--priority SPEC] [--devices 4]
//	               [--seed 1] [--cache 0] [--setup 0]
//	               [--cpuprofile cpu.prof] [--memprofile mem.prof]
//	qcload sweep   --trace trace.jsonl [--routers all] [--schedulers all]
//	               [--admissions all] [--priorities SPEC,...] [--devices 4]
//	               [--fleets 2,4,8] [--preemption on,off] [--rate-scales 1,2]
//	               [--shot-scales 1] [--workers GOMAXPROCS] [--seed 1]
//	               [--out report.json] [--tracing=true] [--cache 0] [--setup 0]
//	               [--cpuprofile cpu.prof] [--memprofile mem.prof]
//	qcload saturate --trace trace.jsonl [--routers all] [--schedulers all]
//	               [--admissions SPEC,...] [--priorities SPEC,...]
//	               [--devices 4] [--fleets 2,4,8] [--objective p99-wait]
//	               [--target 120] [--max-scale 64] [--tolerance 0.05]
//	               [--cost-per-device-hour 1] [--workers GOMAXPROCS]
//	               [--seed 1] [--out frontier.json]
//	qcload trace export --trace trace.jsonl --out spans.json
//	               [--router SPEC] [--scheduler SPEC]
//	               [--admission SPEC] [--priority SPEC]
//	               [--devices 4] [--seed 1]
//
// A SPEC is name[:key=value[:key=value...]] on that axis's policy registry
// (internal/policy); each subcommand's -h prints the registered names, their
// parameters and the default. Commas split a sweep axis, so the colons inside
// one spec survive: --routers least-loaded,affinity:load=0.6:cap=0.1.
//
// `qcload <subcommand> -h` describes every flag, its default and what it
// means for the report; README.md ("qcload quickstart") walks through each
// subcommand on an example.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/trace"
	"hpcqc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qcload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("need a subcommand: gen, capture, import, info, replay, sweep, saturate, trace")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:])
	case "capture":
		return runCapture(args[1:])
	case "import":
		return runImport(args[1:])
	case "info":
		return runInfo(args[1:], out)
	case "replay":
		return runReplay(args[1:], out)
	case "sweep":
		return runSweep(args[1:], out)
	case "saturate":
		return runSaturate(args[1:], out)
	case "trace":
		if len(args) < 2 || args[1] != "export" {
			return fmt.Errorf("trace: need a subcommand: export")
		}
		return runTraceExport(args[2:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (gen, capture, import, info, replay, sweep, saturate, trace)", args[0])
	}
}

// parseMixes parses the --class-mix and --pattern-mix weights, each three
// non-negative ints a:b:c like 1:2:7.
func parseMixes(classMix, patternMix string) (loadgen.ClassMix, workload.Mix, error) {
	var w [2][3]int
	for k, mix := range [2][2]string{{classMix, "--class-mix"}, {patternMix, "--pattern-mix"}} {
		parts := strings.Split(mix[0], ":")
		if len(parts) != 3 {
			return loadgen.ClassMix{}, workload.Mix{}, fmt.Errorf("%s must be three ints a:b:c, got %q", mix[1], mix[0])
		}
		for i, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil || n < 0 {
				return loadgen.ClassMix{}, workload.Mix{}, fmt.Errorf("%s element %q invalid", mix[1], p)
			}
			w[k][i] = n
		}
	}
	return loadgen.ClassMix{Production: w[0][0], Test: w[0][1], Dev: w[0][2]},
		workload.Mix{QCHeavy: w[1][0], CCHeavy: w[1][1], Balanced: w[1][2]}, nil
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	var cfg loadgen.Config
	out := fs.String("out", "", "trace file to write (required)")
	process := fs.String("process", "poisson", "open-loop arrival process: poisson, bursty, diurnal (closed-loop traces: qcload capture)")
	rate := fs.Float64("rate", 150, "mean arrival rate in jobs/hour")
	fs.DurationVar(&cfg.Horizon, "duration", 24*time.Hour, "trace horizon in simulation time")
	fs.Int64Var(&cfg.Seed, "seed", 1, "generation seed")
	fs.IntVar(&cfg.Users, "users", 8, "submitter pool size")
	classMix := fs.String("class-mix", "1:2:7", "production:test:dev weights")
	patternMix := fs.String("pattern-mix", "1:1:2", "qc-heavy:cc-heavy:balanced weights")
	fs.IntVar(&cfg.Programs, "programs", 0, "fixed per-pattern program variants (repeated-program workload; 0 = continuous jitter)")
	deadlines := fs.Bool("deadlines", false, "stamp per-job completion deadlines from the per-class default contracts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: --out is required")
	}
	var err error
	if cfg.Classes, cfg.Patterns, err = parseMixes(*classMix, *patternMix); err != nil {
		return err
	}
	if cfg.Process, err = loadgen.NewProcess(*process, *rate); err != nil {
		return err
	}
	if *deadlines {
		// Deadline stamping is a pure function of already-drawn fields, so
		// the arrivals match the unstamped trace record for record.
		cfg.Deadlines = workload.DefaultDeadlines()
	}
	tr, err := loadgen.Generate(cfg)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qcload: wrote %d jobs over %s to %s (%s/%s)\n",
		tr.Header.Jobs, tr.Header.Horizon(), *out, tr.Header.Mode, tr.Header.Process)
	return nil
}

// runCapture is the closed-loop capture path: run a live fleet under a
// chosen policy triple and record the arrivals.
func runCapture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	var cfg loadgen.ClosedLoopConfig
	out := fs.String("out", "", "trace file to write (required)")
	policyFlags(fs, &cfg.Router, &cfg.Scheduler, &cfg.Admission) // the capture run has no priority axis
	fs.DurationVar(&cfg.Horizon, "duration", 24*time.Hour, "capture horizon in simulation time")
	fs.Int64Var(&cfg.Seed, "seed", 1, "capture seed")
	fs.IntVar(&cfg.Users, "users", 16, "concurrent closed-loop users")
	fs.DurationVar(&cfg.ThinkMean, "think", 5*time.Minute, "mean think time between jobs")
	fs.IntVar(&cfg.Devices, "devices", 4, "fleet size driven during capture")
	classMix := fs.String("class-mix", "1:2:7", "production:test:dev weights")
	patternMix := fs.String("pattern-mix", "1:1:2", "qc-heavy:cc-heavy:balanced weights")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("capture: --out is required")
	}
	var err error
	if cfg.Classes, cfg.Patterns, err = parseMixes(*classMix, *patternMix); err != nil {
		return err
	}
	tr, err := loadgen.GenerateClosedLoop(cfg)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qcload: captured %d arrivals over %s to %s (%s/%s/%s)\n",
		tr.Header.Jobs, tr.Header.Horizon(), *out, cfg.Router, cfg.Scheduler, cfg.Admission)
	return nil
}

// runImport converts an archived scheduler log into the trace format.
func runImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	in := fs.String("in", "", "input workload file (required)")
	out := fs.String("out", "", "trace file to write (required)")
	format := fs.String("format", "swf", "input format (swf: Parallel Workloads Archive standard workload format; sacct: Slurm sacct --parsable2 output)")
	var opts loadgen.ImportOptions
	fs.Float64Var(&opts.ServiceScale, "scale", 1.0, "service-time scale from log seconds to QPU seconds")
	fs.IntVar(&opts.MaxJobs, "max-jobs", 0, "cap on imported jobs (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("import: --in and --out are required")
	}
	tr, err := loadgen.ImportFile(*in, *format, opts)
	if err != nil {
		return err
	}
	if err := tr.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qcload: imported %d jobs over %s from %s to %s\n",
		tr.Header.Jobs, tr.Header.Horizon(), *in, *out)
	return nil
}

func runInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	trace := fs.String("trace", "", "trace file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace == "" {
		return fmt.Errorf("info: --trace is required")
	}
	f, err := openTrace(*trace)
	if err != nil {
		return err
	}
	defer f.Close()
	classes := map[string]int{}
	users := map[string]bool{}
	totalQPU := 0.0
	header, err := loadgen.ScanTrace(f, func(r *loadgen.Record) {
		classes[r.Class]++
		users[r.User] = true
		totalQPU += r.ExpectedQPUSeconds
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(map[string]any{
		"header":               header,
		"jobs_by_class":        classes,
		"distinct_users":       len(users),
		"offered_qpu_seconds":  totalQPU,
		"mean_service_seconds": totalQPU / float64(max(1, header.Jobs)),
	})
}

// openTrace opens a trace file for the subcommands that read it as they go,
// failing as loadgen.ReadTraceFile does.
func openTrace(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: opening trace: %w", err)
	}
	return f, nil
}

// policyAxes is the four policy axes in pipeline order: the flag that picks
// one policy for a single run, the flag that lists a sweep axis, and the
// registry that supplies the default and the help text — so a newly
// registered policy reaches every subcommand's -h by itself.
var policyAxes = [4]struct {
	one, many string
	reg       interface {
		Default() string
		Usage() string
	}
}{
	{"router", "routers", daemon.Routers}, {"scheduler", "schedulers", daemon.Orders},
	{"admission", "admissions", admission.Policies}, {"priority", "priorities", daemon.Priorities},
}

// policyFlags binds the single-run flags (--router …) of the first
// len(dsts) policy axes into dsts, each defaulting to its registry's default.
func policyFlags(fs *flag.FlagSet, dsts ...*string) {
	for i, dst := range dsts {
		ax := policyAxes[i]
		fs.StringVar(dst, ax.one, ax.reg.Default(), ax.one+" policy: "+ax.reg.Usage())
	}
}

// replayFlags binds the flags replay and trace export share into cfg: the
// policy tuple, --devices and --seed.
func replayFlags(fs *flag.FlagSet, cfg *loadgen.ReplayConfig) {
	policyFlags(fs, &cfg.Router, &cfg.Scheduler, &cfg.Admission, &cfg.Priority)
	fs.IntVar(&cfg.Devices, "devices", 4, "fleet size")
	fs.Int64Var(&cfg.Seed, "seed", 1, "replay seed")
}

// matrixFlags binds the flags sweep and saturate share into cfg: the four
// policy axes (--routers …, each defaulting to its entry of defaults),
// --devices, --fleets, --workers, --seed, --cache and --setup.
func matrixFlags(fs *flag.FlagSet, cfg *loadgen.SweepConfig, defaults [4]string) {
	for i, dst := range []*[]string{&cfg.Routers, &cfg.Schedulers, &cfg.Admissions, &cfg.Priorities} {
		ax := policyAxes[i]
		*dst = []string{defaults[i]}
		fs.Var(listFlag[string]{dst, text}, ax.many, "comma-separated "+ax.one+" axis, or all: "+ax.reg.Usage())
	}
	fs.IntVar(&cfg.Devices, "devices", 4, "fleet size per combination (when --fleets is unset)")
	fs.Var(listFlag[int]{&cfg.FleetSizes, strconv.Atoi}, "fleets", "comma-separated fleet-size axis (overrides --devices when set)")
	fs.IntVar(&cfg.Workers, "workers", 0, "bounded worker pool size (0 = GOMAXPROCS); never affects report bytes")
	fs.Int64Var(&cfg.Seed, "seed", 1, "replay seed shared by every combination")
	fs.IntVar(&cfg.ProgramCache, "cache", 0, "per-partition program-cache entries shared by every combination (0 = caching off)")
	fs.Float64Var(&cfg.SetupSeconds, "setup", 0, "cold-setup QPU seconds a program-cache miss pays (requires --cache)")
}

// listFlag binds a comma-separated flag into *dst, each element through
// parse. Set replaces the list, so a flag given twice keeps its last value.
type listFlag[T any] struct {
	dst   *[]T
	parse func(string) (T, error)
}

func (l listFlag[T]) String() string {
	if l.dst == nil {
		return ""
	}
	parts := make([]string, len(*l.dst))
	for i, v := range *l.dst {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func (l listFlag[T]) Set(s string) error {
	*l.dst = nil
	for _, p := range splitAxis(s) {
		v, err := l.parse(p)
		if err != nil {
			return err
		}
		*l.dst = append(*l.dst, v)
	}
	return nil
}

// text and number parse one element of a list flag: a policy spec or
// preemption setting, and a scale like --rate-scales takes.
func text(s string) (string, error)    { return s, nil }
func number(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// profileFlags registers --cpuprofile and --memprofile on a subcommand. The
// returned start begins CPU profiling; the stop it returns ends it and
// writes the allocation profile, and must run before the command returns.
func profileFlags(fs *flag.FlagSet) (start func() (stop func() error, err error)) {
	cpuPath := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memPath := fs.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	return func() (func() error, error) {
		var cpu *os.File
		if *cpuPath != "" {
			f, err := os.Create(*cpuPath)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			cpu = f
		}
		return func() error {
			var errs []error
			if cpu != nil {
				pprof.StopCPUProfile()
				errs = append(errs, cpu.Close())
			}
			if *memPath != "" {
				f, err := os.Create(*memPath)
				if err != nil {
					return errors.Join(append(errs, err)...)
				}
				runtime.GC() // settle the statistics the profile is cut from
				errs = append(errs, pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
			}
			return errors.Join(errs...)
		}, nil
	}
}

func runReplay(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var cfg loadgen.ReplayConfig
	trace := fs.String("trace", "", "trace file (required)")
	replayFlags(fs, &cfg)
	fs.BoolVar(&cfg.Tracing, "tracing", true, "attach span tracing and report per-stage latency breakdown")
	fs.IntVar(&cfg.ProgramCache, "cache", 0, "per-partition program-cache entries (0 = caching off)")
	fs.Float64Var(&cfg.SetupSeconds, "setup", 0, "cold-setup QPU seconds a program-cache miss pays (requires --cache)")
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace == "" {
		return fmt.Errorf("replay: --trace is required")
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	f, err := openTrace(*trace)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := loadgen.ReplayReader(f, cfg)
	if err != nil {
		return err
	}
	return writeReport(out, "", rep)
}

func runSweep(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var cfg loadgen.SweepConfig
	trace := fs.String("trace", "", "trace file (required)")
	// The priority axis defaults to its identity policy alone, not all, so
	// sweeps that never name it keep their exact combination list.
	matrixFlags(fs, &cfg, [4]string{"all", "all", "all", daemon.Priorities.Default()})
	fs.Var(listFlag[string]{&cfg.Preemptions, text}, "preemption", "comma-separated preemption axis: on, off (default on only)")
	fs.Var(listFlag[float64]{&cfg.RateScales, number}, "rate-scales", "comma-separated arrival-rate multiplier axis (default 1)")
	fs.Var(listFlag[float64]{&cfg.ShotScales, number}, "shot-scales", "comma-separated device shot-rate multiplier axis (default 1)")
	outPath := fs.String("out", "", "report file (default stdout)")
	fs.BoolVar(&cfg.Tracing, "tracing", true, "attach span tracing and report per-stage latency breakdown per cell")
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace == "" {
		return fmt.Errorf("sweep: --trace is required")
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	tr, err := loadgen.ReadTraceFile(*trace)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := loadgen.Sweep(tr, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qcload: swept %d jobs × %d policy combinations in %s\n",
		tr.Header.Jobs, len(rep.Results), time.Since(start).Round(time.Millisecond))
	return writeReport(out, *outPath, rep)
}

// runSaturate is the capacity-planning search: per policy tuple × fleet
// size, binary-search the arrival-rate multiplier to the knee where the
// production objective blows past target, and emit the capacity-frontier
// report. Defaults differ from sweep where capacity planning wants them to:
// the admission axis defaults to accept-all (an admission throttle changes
// what "sustainable" means — cross it explicitly when that is the question).
func runSaturate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("saturate", flag.ContinueOnError)
	var cfg loadgen.SaturateConfig
	trace := fs.String("trace", "", "trace file (required)")
	matrixFlags(fs, &cfg.SweepConfig, [4]string{"all", "all", admission.Policies.Default(), daemon.Priorities.Default()})
	fs.StringVar(&cfg.Objective, "objective", loadgen.ObjectiveP99Wait, "knee objective: p99-wait (production p99 wait ≤ target seconds) or deadline-hit (hit rate ≥ target)")
	fs.Float64Var(&cfg.TargetSeconds, "target", 0, "objective target: seconds for p99-wait (default 120), a rate in (0,1] for deadline-hit (default 0.95)")
	fs.Float64Var(&cfg.MaxScale, "max-scale", 0, "search cap on the rate multiplier (default 64)")
	fs.Float64Var(&cfg.Tolerance, "tolerance", 0, "relative knee precision: bisection stops at hi/lo ≤ 1+tolerance (default 0.05)")
	fs.Float64Var(&cfg.CostPerDeviceHour, "cost-per-device-hour", 0, "price of one partition-hour for the cost ranking (default 1)")
	outPath := fs.String("out", "", "frontier report file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace == "" {
		return fmt.Errorf("saturate: --trace is required")
	}
	if cfg.Objective == loadgen.ObjectiveDeadlineHit {
		// --target is bound to the p99-wait field; under deadline-hit it is
		// the hit-rate floor instead.
		cfg.TargetHitRate, cfg.TargetSeconds = cfg.TargetSeconds, 0
	}
	tr, err := loadgen.ReadTraceFile(*trace)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := loadgen.Saturate(tr, cfg)
	if err != nil {
		return err
	}
	probes := 0
	for _, pt := range rep.Points {
		probes += pt.Probes
	}
	fmt.Fprintf(os.Stderr, "qcload: found %d capacity knees (%d probes × %d jobs) in %s\n",
		len(rep.Points), probes, tr.Header.Jobs, time.Since(start).Round(time.Millisecond))
	return writeReport(out, *outPath, rep)
}

// runTraceExport replays a trace with the flight recorder attached and
// writes every span — one track per partition (busy/idle occupancy), one
// per job (lifecycle waterfall) — as Chrome trace-event JSON for Perfetto.
func runTraceExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trace export", flag.ContinueOnError)
	var cfg loadgen.ReplayConfig
	tracePath := fs.String("trace", "", "trace file (required)")
	replayFlags(fs, &cfg)
	outPath := fs.String("out", "", "trace-event JSON file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("trace export: --trace is required")
	}
	tr, err := loadgen.ReadTraceFile(*tracePath)
	if err != nil {
		return err
	}
	// Size the recorder to hold every job's trace: a replay-wide export is a
	// full recording, not a flight-recorder tail.
	rec := trace.NewFlightRecorder(max(1, len(tr.Records)))
	cfg.SpanListener = rec.Observe
	if _, err := loadgen.Replay(tr, cfg); err != nil {
		return err
	}
	if err := writeTo(out, *outPath, func(w io.Writer) error {
		return trace.WriteChrome(w, rec.Jobs(), rec.Occupancy())
	}); err != nil {
		return err
	}
	live, done := rec.Len()
	fmt.Fprintf(os.Stderr, "qcload: exported %d job traces across %d partitions (%s/%s/%s)\n",
		live+done, cfg.Devices, cfg.Router, cfg.Scheduler, cfg.Admission)
	return nil
}

// splitAxis splits a comma-separated list flag, dropping blank elements.
func splitAxis(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// writeTo runs write on the file at path, or on out when path is empty. The
// file's Close error is the command's: a short write that surfaces only at
// close must not leave a truncated report behind exit status 0.
func writeTo(out io.Writer, path string, write func(io.Writer) error) error {
	if path == "" {
		return write(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport writes v as indented JSON through writeTo.
func writeReport(out io.Writer, path string, v any) error {
	return writeTo(out, path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
