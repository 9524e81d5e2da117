package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The qcload path: trace file → `qcload replay|sweep` → report. End-to-end
// numbers come from a freshly built qcload binary run as a child process per
// repetition — cold caches and true peak RSS, as CLI users pay them — with no
// harness code inside the measured process.

// cliCell is one qcload invocation of a workload.
type cliCell struct {
	name string
	// sub is the qcload subcommand, "replay" or "sweep"; args follow
	// --trace/--seed, long-form flags only.
	sub  string
	args []string
	// repeat runs the cell that many times per rep, taking the median wall:
	// a cheap cell next to an expensive one gets several samples for the
	// price of one pass. A rep interleaves its cells' invocations (see
	// runRep), so a stretch of interference lands on all of them alike.
	repeat int
	// reference marks a cell that is run and gated like the others but only
	// recorded, not folded into the metrics: the fifo baseline the backlog
	// cells' cost is read against.
	reference bool
	// params is the same configuration for the traced in-process driver
	// (replay cells).
	params replayParams
}

type cliWorkload struct {
	name string
	// gen is the `qcload gen` flag set; duration is kept apart so that quick
	// mode can scale it.
	gen      []string
	duration time.Duration
	cells    []cliCell
}

// quickScale is the factor quick mode divides trace horizons and serve job
// counts by.
const quickScale = 50

var cliWorkloads = []cliWorkload{
	{
		name: "replay-steady", gen: []string{"--rate", "150"}, duration: 672 * time.Hour,
		cells: []cliCell{{name: "default", sub: "replay", repeat: 1,
			args:   []string{"--devices", "4"},
			params: replayParams{devices: 4, router: "least-loaded", scheduler: "fifo", admission: "accept-all", priority: "constant"}}},
	},
	{
		// 24 h is long enough that queue ordering dominates every scored cell
		// and short enough that the fair-share cell, quadratic in the backlog,
		// costs under 4 s: a run then holds several reps, not one.
		name: "replay-backlog", gen: []string{"--rate", "600", "--deadlines"}, duration: 24 * time.Hour,
		cells: []cliCell{
			{name: "fifo", sub: "replay", repeat: 1, reference: true, args: []string{"--devices", "1"}},
			{name: "shortest-first", sub: "replay", repeat: 3,
				args:   []string{"--devices", "1", "--scheduler", "shortest-first"},
				params: replayParams{devices: 1, router: "least-loaded", scheduler: "shortest-first", admission: "accept-all", priority: "constant"}},
			{name: "slo-urgency", sub: "replay", repeat: 3,
				args:   []string{"--devices", "1", "--priority", "slo-urgency"},
				params: replayParams{devices: 1, router: "least-loaded", scheduler: "fifo", admission: "accept-all", priority: "slo-urgency"}},
			{name: "fair-share", sub: "replay", repeat: 1,
				args:   []string{"--devices", "1", "--scheduler", "fair-share"},
				params: replayParams{devices: 1, router: "least-loaded", scheduler: "fair-share", admission: "accept-all", priority: "constant"}},
		},
	},
	{
		name: "sweep-matrix", gen: []string{"--process", "diurnal", "--rate", "150", "--deadlines", "--programs", "12"},
		duration: 24 * time.Hour,
		cells: []cliCell{{name: "matrix", sub: "sweep", repeat: 1, args: []string{
			"--routers", strings.Join(sweepRouters, ","), "--schedulers", "all", "--admissions", "all",
			"--priorities", strings.Join(sweepPriorities, ","),
			"--cache", strconv.Itoa(sweepCache), "--setup", strconv.Itoa(sweepSetup)}}},
	},
}

// The sweep-matrix axes; "all" schedulers and admissions expand inside qcload.
var (
	sweepRouters    = []string{"round-robin", "least-loaded", "class-affinity", "affinity"}
	sweepPriorities = []string{"constant", "slo-urgency"}
)

const (
	sweepCache = 8
	sweepSetup = 30
)

func findCLIWorkload(name string) *cliWorkload {
	for i := range cliWorkloads {
		if cliWorkloads[i].name == name {
			return &cliWorkloads[i]
		}
	}
	return nil
}

// harness carries what every run of a workload shares.
type harness struct {
	root    string // checkout root
	dir     string // root/.bench_build
	spec    *benchSpec
	seed    int64
	seconds time.Duration
	quick   bool
}

// setupRounds is how often a run repeats its set-up to report a median.
const setupRounds = 3

func (h *harness) rounds() int {
	if h.quick {
		return 1
	}
	return setupRounds
}

// keepGoing reports whether a run that began measuring at start should start
// another rep: always at least one, one only in quick mode, otherwise as long
// as a rep of the mean length so far still fits into the run length, so a run
// measures for about --seconds and does not overshoot it by a rep.
func (h *harness) keepGoing(start time.Time, reps int) bool {
	if reps == 0 {
		return true
	}
	elapsed := time.Since(start)
	return !h.quick && elapsed+elapsed/time.Duration(reps) <= h.seconds
}

// cliInput is a workload's prepared input.
type cliInput struct {
	qcload string
	trace  string
	info   inputInfo
}

// setupCLI does everything a qcload workload needs before the first measured
// child starts: build qcload from the checkout's source, generate the trace
// from the seed, and read it once (`qcload info`) so the binary and the trace
// sit in the page cache and the job count is known.
func (h *harness) setupCLI(w *cliWorkload) (*cliInput, error) {
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return nil, err
	}
	in := &cliInput{
		qcload: filepath.Join(h.dir, "qcload"),
		trace:  filepath.Join(h.dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, h.seed)),
	}
	// A fresh output path makes every round pay the link, so repeated rounds
	// measure the same work.
	_ = os.Remove(in.qcload)
	build := exec.Command("go", "build", "-o", in.qcload, "./cmd/qcload")
	build.Dir = h.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building qcload: %v\n%s", err, out)
	}
	duration := w.duration
	if h.quick {
		duration /= quickScale
	}
	gen := append([]string{"gen", "--out", in.trace, "--seed", strconv.FormatInt(h.seed, 10),
		"--duration", duration.String()}, w.gen...)
	if out, err := exec.Command(in.qcload, gen...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("qcload gen: %v\n%s", err, out)
	}
	out, err := exec.Command(in.qcload, "info", "--trace", in.trace).Output()
	if err != nil {
		return nil, fmt.Errorf("qcload info: %v", err)
	}
	var info struct {
		Header struct {
			Jobs int `json:"jobs"`
		} `json:"header"`
	}
	if err := json.Unmarshal(out, &info); err != nil {
		return nil, fmt.Errorf("qcload info: %w", err)
	}
	data, err := os.ReadFile(in.trace)
	if err != nil {
		return nil, err
	}
	in.info = inputInfo{SHA256: digest(data), Jobs: info.Header.Jobs}
	if in.info.Jobs == 0 {
		return nil, fmt.Errorf("%s: generated an empty trace", w.name)
	}
	return in, nil
}

// reportCounts is the part of a replay report the correctness gate reads.
type reportCounts struct {
	Jobs         int `json:"jobs"`
	Completed    int `json:"completed"`
	Failed       int `json:"failed"`
	Cancelled    int `json:"cancelled"`
	Rejected     int `json:"rejected"`
	SubmitErrors int `json:"submit_errors"`
}

// check applies the per-report gate: every trace job is accounted for, in a
// terminal state, and none was lost to a submit error.
func (c reportCounts) check(traceJobs int) error {
	switch {
	case c.Jobs != traceJobs:
		return fmt.Errorf("report counts %d jobs, trace has %d", c.Jobs, traceJobs)
	case c.Completed+c.Failed+c.Cancelled+c.Rejected != c.Jobs:
		return fmt.Errorf("%d completed + %d failed + %d cancelled + %d rejected ≠ %d jobs",
			c.Completed, c.Failed, c.Cancelled, c.Rejected, c.Jobs)
	case c.SubmitErrors != 0:
		return fmt.Errorf("%d submit errors", c.SubmitErrors)
	}
	return nil
}

// checkReport gates one child's output and returns how many job replays it
// covers, how many of them failed, and the sweep's cell count (0 for replay).
func checkReport(sub string, data []byte, traceJobs int) (attempted, failed, cells int, err error) {
	if sub == "replay" {
		var c reportCounts
		if err := json.Unmarshal(data, &c); err != nil {
			return 0, 0, 0, err
		}
		return c.Jobs, c.Failed, 0, c.check(traceJobs)
	}
	var sw struct {
		Results []reportCounts `json:"results"`
	}
	if err := json.Unmarshal(data, &sw); err != nil {
		return 0, 0, 0, err
	}
	if len(sw.Results) == 0 {
		return 0, 0, 0, fmt.Errorf("sweep report has no cells")
	}
	for i, c := range sw.Results {
		if err := c.check(traceJobs); err != nil {
			return 0, 0, 0, fmt.Errorf("cell %d: %w", i, err)
		}
		attempted += c.Jobs
		failed += c.Failed
	}
	return attempted, failed, len(sw.Results), nil
}

// runChild runs one qcload invocation to completion and returns its wall time
// (exec to exit, so process start, file read and report write all count) and
// peak resident set.
func runChild(bin string, args []string, stdout io.Writer) (wall time.Duration, rssMB float64, err error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	wall = time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
	}
	// Linux reports ru_maxrss in KiB.
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return wall, float64(ru.Maxrss) / 1024, nil
}

// cellOutcome is one cell's part of one rep.
type cellOutcome struct {
	walls []float64 // seconds, one per invocation
	rssMB float64   // largest
	work  int       // job replays one invocation covers
	cells int       // sweep cells in the report, 0 for replay
}

// runOnce runs one invocation of a cell. The child's report goes through the
// correctness gate, and its digest must equal the one every earlier
// invocation of the cell produced.
func (h *harness) runOnce(res *runResult, w *cliWorkload, c *cliCell, in *cliInput, digests map[string]string, out *cellOutcome) error {
	reportPath := filepath.Join(h.dir, fmt.Sprintf("%s-%s-report.json", w.name, c.name))
	args := append([]string{c.sub, "--trace", in.trace, "--seed", strconv.FormatInt(h.seed, 10)}, c.args...)
	// replay prints its report; sweep writes --out itself.
	var stdout io.Writer
	var f *os.File
	if c.sub == "sweep" {
		args = append(args, "--out", reportPath)
	} else {
		var err error
		if f, err = os.Create(reportPath); err != nil {
			return err
		}
		stdout = f
	}
	wall, mb, err := runChild(in.qcload, args, stdout)
	if f != nil {
		_ = f.Close()
	}
	if err != nil {
		return err
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return err
	}
	attempted, failed, cells, err := checkReport(c.sub, data, in.info.Jobs)
	if err != nil {
		return fmt.Errorf("%s/%s: correctness gate: %w", w.name, c.name, err)
	}
	sum := digest(data)
	if prev, ok := digests[c.name]; ok && prev != sum {
		return fmt.Errorf("%s/%s: correctness gate: report digest changed between reps (%s, then %s)",
			w.name, c.name, prev, sum)
	}
	digests[c.name] = sum
	res.Attempted += attempted
	res.Failed += failed
	out.work, out.cells = attempted, cells
	out.rssMB = max(out.rssMB, mb)
	out.walls = append(out.walls, wall.Seconds())
	return nil
}

// runRep is one rep of a workload: pass i runs every cell that repeats more
// than i times, so the invocations of the cheap cells alternate instead of
// running back to back.
func (h *harness) runRep(res *runResult, w *cliWorkload, in *cliInput, digests map[string]string) ([]cellOutcome, error) {
	outs := make([]cellOutcome, len(w.cells))
	for pass, ran := 0, true; ran; pass++ {
		ran = false
		for i := range w.cells {
			if c := &w.cells[i]; pass < c.repeat {
				if err := h.runOnce(res, w, c, in, digests, &outs[i]); err != nil {
					return nil, err
				}
				ran = true
			}
		}
	}
	return outs, nil
}

// runCLI is the untraced run of a qcload workload.
func (h *harness) runCLI(w *cliWorkload) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: h.seed, Seconds: h.seconds.Seconds(), Metrics: map[string]float64{}}
	var in *cliInput
	for i := 0; i < h.rounds(); i++ {
		start := time.Now()
		var err error
		if in, err = h.setupCLI(w); err != nil {
			return nil, err
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(start).Seconds())
	}
	res.Input = in.info

	digests := make(map[string]string) // cell → report digest, equal across reps
	start := time.Now()
	for h.keepGoing(start, len(res.Reps)) {
		rep := repRecord{Metrics: map[string]float64{}, Detail: map[string]float64{}, Samples: map[string]int{}}
		outs, err := h.runRep(res, w, in, digests)
		if err != nil {
			return nil, err
		}
		var wallsMS, rates, rss []float64
		for i, out := range outs {
			c := &w.cells[i]
			wallS := median(out.walls)
			rep.Detail[c.name+".wall_ms"] = wallS * 1e3
			rep.Samples[c.name+".wall_ms"] = len(out.walls)
			if out.cells > 0 {
				rep.Detail["sweep_cells_per_s"] = float64(out.cells) / wallS
			}
			if c.reference {
				continue
			}
			wallsMS = append(wallsMS, wallS*1e3)
			rates = append(rates, float64(out.work)/wallS)
			rss = append(rss, out.rssMB)
		}
		rep.Metrics[mJobsPerSec] = geomean(rates)
		rep.Metrics[mPeakRSS] = maxOf(rss)
		rep.Metrics[mTurnaroundP50] = percentile(wallsMS, 50)
		rep.Metrics[mTurnaroundP99] = percentile(wallsMS, 99)
		rep.Samples[mTurnaroundP50], rep.Samples[mTurnaroundP99] = len(wallsMS), len(wallsMS)
		res.Reps = append(res.Reps, rep)
	}
	res.foldReps()
	res.Correct = true
	return res, nil
}
