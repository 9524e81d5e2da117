package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hpcqc/internal/loadgen"
)

// The traced run of a qcload workload, in-process: per cell, first the
// reference (loadgen.Replay, untraced — its wall is the base of
// trace.overhead_pct and its allocations the go.* counts), then the traced
// replay driver, whose report must hash equal to the reference's.

var replayLayers = []layer{lyReadTrace, lyPrepare, lyDaemonNew, lySubmit, lyAdmit, lyRoutePick, lyOrderPop,
	lyClockRun, lyAnalyzerObserve, lyAnalyzerSpan, lyReport, lyMarshal}

// reference is one untraced in-process replay and what it cost.
type reference struct {
	report []byte
	// wall is read + replay + marshal, the work a traced replay also does;
	// replay is the loadgen.Replay call alone.
	wall, replay time.Duration
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	gcPause      time.Duration
}

func referenceReplay(tracePath string, p replayParams) (*reference, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	trc, err := loadgen.ReadTraceFile(tracePath)
	if err != nil {
		return nil, err
	}
	replayStart := time.Now()
	rep, err := loadgen.Replay(trc, p.config())
	if err != nil {
		return nil, err
	}
	ref := &reference{replay: time.Since(replayStart)}
	if ref.report, err = writeReport(rep); err != nil {
		return nil, err
	}
	ref.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	ref.mallocs = after.Mallocs - before.Mallocs
	ref.allocBytes = after.TotalAlloc - before.TotalAlloc
	ref.gcCycles = after.NumGC - before.NumGC
	ref.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return ref, nil
}

// traceTotals is the traced run of one workload in the making: its metric
// set, its input, and the sums the go.* and trace.* metrics are made from.
type traceTotals struct {
	m         map[string]float64
	tracePath string
	jobs      int // per replay

	refWall, traced, covered time.Duration
	mallocs, allocBytes      uint64
	gcCycles                 uint32
	gcPause                  time.Duration
	replayed                 int // jobs over all cells so far
}

// cell runs the reference and then the traced driver for one configuration,
// gates the driver's report against the reference's, and folds spans and
// costs into the totals. It returns the reference and the spans for the
// caller's own use.
func (t *traceTotals) cell(p replayParams) (*reference, *tracer, error) {
	ref, err := referenceReplay(t.tracePath, p)
	if err != nil {
		return nil, nil, err
	}
	// About a dozen spans per job: submit, admit, route, pop, three job
	// events and a handful of pipeline spans.
	tr := newTracer(true, 14*t.jobs)
	start := time.Now()
	report, scores, err := tracedReplay(tr, t.tracePath, p)
	t.traced += time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(report, ref.report) {
		return nil, nil, fmt.Errorf("correctness gate: traced replay driver's report (%s) differs from loadgen.Replay's (%s) under %+v",
			digest(report), digest(ref.report), p)
	}
	addLayerMetrics(t.m, tr.aggregate(), replayLayers)
	t.m["daemon.priority_score.calls"] += float64(scores)
	t.covered += tr.rootCover(replayLayers...)
	t.refWall += ref.wall
	t.mallocs += ref.mallocs
	t.allocBytes += ref.allocBytes
	t.gcCycles += ref.gcCycles
	t.gcPause += ref.gcPause
	t.replayed += t.jobs
	return ref, tr, nil
}

func (t *traceTotals) write(res *runResult) {
	m := t.m
	m["go.allocs_per_job"] = float64(t.mallocs) / float64(t.replayed)
	m["go.alloc_kb_per_job"] = float64(t.allocBytes) / 1024 / float64(t.replayed)
	m["go.gc_cycles"] = float64(t.gcCycles)
	m["go.gc_pause_ms"] = t.gcPause.Seconds() * 1e3
	m["trace.overhead_pct"] = 100 * (t.traced - t.refWall).Seconds() / t.refWall.Seconds()
	setUnattributed(res, t.traced, t.covered)
}

// setUnattributed reports the share of the traced wall no span covers — the
// reconciliation between the layers and the whole. More than 15 % means the
// spans miss a layer, which is itself a finding.
func setUnattributed(res *runResult, wall, covered time.Duration) {
	pct := 100 * (wall - covered).Seconds() / wall.Seconds()
	res.Metrics["trace.unattributed_pct"] = pct
	if pct > 15 {
		res.Findings = append(res.Findings, fmt.Sprintf("%s: %.1f%% of the traced wall is covered by no span", res.Workload, pct))
	}
}

// traceCLI is the traced run of a qcload workload.
func (h *harness) traceCLI(w *cliWorkload) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: h.seed, Traced: true, Metrics: h.zeroLayerMetrics()}
	in, err := h.setupCLI(w)
	if err != nil {
		return nil, err
	}
	res.Input = in.info
	spansPath := filepath.Join(h.dir, w.name+"-spans.txt")
	tot := &traceTotals{m: res.Metrics, tracePath: in.trace, jobs: in.info.Jobs}
	if w.cells[len(w.cells)-1].sub == "sweep" {
		if err := h.traceSweep(tot, spansPath); err != nil {
			return nil, err
		}
	} else {
		for _, c := range w.cells {
			if c.reference {
				continue
			}
			p := c.params
			p.seed = h.seed
			_, tr, err := tot.cell(p)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.name, c.name, err)
			}
			// One file per run: the last cell's spans (the only cell's, for a
			// single-cell workload).
			if err := tr.dump(spansPath); err != nil {
				return nil, err
			}
		}
	}
	tot.write(res)
	res.Attempted = tot.replayed
	res.Correct = true
	h.runProbes(res.Metrics)
	return res, nil
}

// traceSweep measures the sweep engine in-process: loadgen.Sweep on the
// default worker pool for the parallel wall, then every cell on its own,
// serially — untraced for the serial cost, traced for the layers — each
// checked against the sweep's own cell.
func (h *harness) traceSweep(tot *traceTotals, spansPath string) error {
	trc, err := loadgen.ReadTraceFile(tot.tracePath)
	if err != nil {
		return err
	}
	start := time.Now()
	sw, err := loadgen.Sweep(trc, loadgen.SweepConfig{
		Devices: 4, Seed: h.seed, Routers: sweepRouters, Priorities: sweepPriorities,
		Tracing: true, ProgramCache: sweepCache, SetupSeconds: sweepSetup,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	var serial, slowest time.Duration
	var slowestSpans *tracer
	for i, cell := range sw.Results {
		priority := cell.Priority
		if priority == "" {
			priority = "constant"
		}
		p := replayParams{devices: 4, router: cell.Router, scheduler: cell.Scheduler, admission: cell.Admission,
			priority: priority, seed: h.seed, cache: sweepCache, setup: sweepSetup}
		ref, tr, err := tot.cell(p)
		if err != nil {
			return err
		}
		want, err := writeReport(cell)
		if err != nil {
			return err
		}
		if !bytes.Equal(ref.report, want) {
			return fmt.Errorf("correctness gate: sweep cell %d (%s/%s/%s/%s) differs from a lone replay of the same configuration",
				i, cell.Router, cell.Scheduler, cell.Admission, priority)
		}
		serial += ref.replay
		if ref.replay > slowest {
			// 96 cells of spans would run to gigabytes; keep the slowest
			// cell's, the one that bounds the parallel wall.
			slowest, slowestSpans = ref.replay, tr
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(sw.Results))
	m := tot.m
	m["loadgen.sweep.wall_ms"] = wall.Seconds() * 1e3
	m["loadgen.sweep.serial_cell_ms_sum"] = serial.Seconds() * 1e3
	m["loadgen.sweep.slowest_cell_ms"] = slowest.Seconds() * 1e3
	m["loadgen.sweep.parallel_efficiency"] = serial.Seconds() / (wall.Seconds() * float64(workers))
	return slowestSpans.dump(spansPath)
}

// zeroLayerMetrics starts a traced run's metric set: every per-layer name the
// harness produces, at zero, so that layers a workload never enters read 0.
func (h *harness) zeroLayerMetrics() map[string]float64 {
	names := perLayerNames()
	m := make(map[string]float64, len(names))
	for _, name := range names {
		m[name] = 0
	}
	return m
}
