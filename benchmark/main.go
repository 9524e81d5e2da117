// Command benchmark is this repository's benchmark: five named workloads over
// the two end-to-end paths users meet — trace file → `qcload replay|sweep` →
// report, and SDK → daemon.Client → HTTP → pipeline → device → result — with
// an untraced run for the end-to-end metrics and a separate traced run for the
// per-layer ones. BENCHMARK.json at the repository root is its contract;
// README.md in this directory explains every workload and metric.
//
//	go run -C benchmark hpcqc/benchmark --seed 1 [--out results.json] [--quick]
//	    every workload, untraced then traced; prints each metric by name
//	go run -C benchmark hpcqc/benchmark --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last stdout line is the result object
//	go run -C benchmark hpcqc/benchmark compare A.json B.json
//	    applies BENCHMARK.json's bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// A failed run prints no result: the driver must never read metrics
		// from a run whose outputs were wrong.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case serveChild:
			return serveChildMain(args[1:])
		case "compare":
			return compareMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload once and print one result object (default: run all)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	traced := fs.Int("trace", 0, "with --workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	out := fs.String("out", "", "also write the full results (environment, inputs, every rep; with --workload, that one run) here")
	quick := fs.Bool("quick", false, "smoke scale: inputs about 1/50 the size, one rep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	h := &harness{root: root, dir: filepath.Join(root, buildDir), spec: spec, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), quick: *quick}

	if *workload != "" {
		res, err := h.runWorkload(*workload, *traced == 1)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeJSON(fromRoot(root, *out), res); err != nil {
				return err
			}
		}
		return printResult(spec, res)
	}

	// Every run is a process of its own, exactly as the driver makes it. That
	// keeps runs from sharing heap and GC state, and it keeps this process
	// small: Linux reports a child's ru_maxrss as no less than its parent's
	// peak at the fork, so a harness that had grown (a traced run holds the
	// whole trace and its spans) would put a floor under every peak_rss_mb
	// measured after it.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return err
	}
	results := &resultsFile{Env: environment(root), Seed: *seed, Seconds: *seconds, Quick: *quick}
	for _, w := range spec.Workloads {
		for tr := 0; tr <= 1; tr++ {
			runOut := filepath.Join(h.dir, fmt.Sprintf("%s-run%d.json", w.Name, tr))
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
				"--trace", fmt.Sprint(tr), "--out", runOut}
			if *quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.Name, tr, err)
			}
			data, err := os.ReadFile(runOut)
			if err != nil {
				return err
			}
			res := new(runResult)
			if err := json.Unmarshal(data, res); err != nil {
				return fmt.Errorf("%s: %w", runOut, err)
			}
			printMetrics(spec, res)
			results.Runs = append(results.Runs, res)
		}
	}
	if *out == "" {
		return nil
	}
	return writeJSON(fromRoot(root, *out), results)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fromRoot resolves a relative path against the checkout root: `go run -C
// benchmark` starts the harness inside the benchmark's own directory, which
// is no place for results.
func fromRoot(root, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(root, path)
}

// runWorkload dispatches one run of one workload.
func (h *harness) runWorkload(name string, traced bool) (*runResult, error) {
	if !h.spec.hasWorkload(name) {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d, traced %v)\n", name, h.seed, traced)
	var res *runResult
	var err error
	switch cw, sw := findCLIWorkload(name), findServeWorkload(name); {
	case cw != nil && traced:
		res, err = h.traceCLI(cw)
	case cw != nil:
		res, err = h.runCLI(cw)
	case sw != nil && traced:
		res, err = h.traceServe(sw)
	case sw != nil:
		res, err = h.runServe(sw)
	default:
		err = fmt.Errorf("workload %q is in %s but not in the harness", name, specFile)
	}
	if err != nil {
		return nil, err
	}
	if res.Failed > 0 {
		// failed_ops must stay 0: any failed operation fails the run.
		return nil, fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	for _, f := range res.Findings {
		fmt.Fprintln(os.Stderr, "benchmark: finding:", f)
	}
	return res, nil
}

// printResult writes the driver's result object as the last line of stdout.
func printResult(spec *benchSpec, res *runResult) error {
	defs := spec.EndToEnd
	if res.Traced {
		defs = spec.PerLayer
	}
	metrics, err := pick(defs, res.Metrics)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// printMetrics lists a run's metrics by name with their units.
func printMetrics(spec *benchSpec, res *runResult) {
	defs, kind := spec.EndToEnd, "end-to-end"
	if res.Traced {
		defs, kind = spec.PerLayer, "per-layer"
	}
	fmt.Printf("== %s  %s  (seed %d, %d reps, %d attempted, %d failed)\n", res.Workload, kind, res.Seed,
		len(res.Reps), res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-44s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	if !res.Traced {
		// The untraced numbers behind the metrics, from the last rep.
		last := res.Reps[len(res.Reps)-1]
		names := make([]string, 0, len(last.Detail))
		for name := range last.Detail {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  . %-42s %16.4f\n", name, last.Detail[name])
		}
	}
}

// resultsFile is what --out writes and `compare` reads.
type resultsFile struct {
	Env     envInfo      `json:"environment"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Quick   bool         `json:"quick"`
	Runs    []*runResult `json:"runs"`
}

type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func environment(root string) envInfo {
	env := envInfo{Commit: "unknown", GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// The driver's checkouts are not git repositories; the commit is then
	// simply unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
