// Command benchdiff compares two test2json benchmark recordings (the
// BENCH_fleet.json format written by `make bench-json`) and fails when a
// throughput metric regresses past a threshold. It is the CI gate behind
// `make bench-diff`: the committed baseline is the contract, a fresh run is
// the candidate, and a >20 % drop in any jobs/wall-second metric is a build
// failure rather than a silent slide.
//
// Usage:
//
//	benchdiff [-require b1,b2] baseline.json fresh.json
//
// Only explicitly guarded metrics are compared; ns/op and sim-time metrics
// vary with benchtime and fleet width in ways that are not regressions. The
// higherMetrics set is higher-is-better (a drop past threshold fails); the
// lowerMetrics set is lower-is-better (a rise fails) and guards the sweep
// engine's peak-heap bound. The gate's numbers are constants below, not flags:
// nothing ever set them. Benchmarks present in one file but not the other are
// reported but never fail the diff, so adding or renaming a benchmark does
// not require regenerating the baseline in the same commit — except the
// benchmarks named by -require, which must appear in both files (by name, or
// as the parent of sub-benchmarks; "name:metric" also requires that metric of
// it): those are the gate's load-bearing
// members, and silently dropping one (a renamed benchmark, a stale baseline)
// would otherwise turn the gate into a no-op. Names are compared without the
// -GOMAXPROCS suffix, so a baseline recorded on one core gates a run on four.
//
// Two intra-run rules ride along, both built on the same interleaved-ratio
// construction: a benchmark runs its instrumented and baseline variants back
// to back inside the same iterations and reports their cost ratio, which
// makes the rule immune both to machine-speed noise across files and to the
// heap-growth drift between benchmarks minutes apart in one run. The traced
// replay benchmark reports trace_overhead_pct, capped by traceOverhead —
// span emission is sold as allocation-lean observation, and this is where
// that claim is enforced. The priority replay benchmark reports
// priority_overhead_pct — the cost of slo-urgency's per-dispatch backlog
// re-scoring over the constant policy's legacy pop — capped by
// priorityOverhead: the deadline axis must stay a scheduling knob, not a
// replay throughput tax. A count is capped beside them (see capped).
//
// A third intra-run rule holds the queue's indexed extraction to its
// complexity claim: for every BenchmarkClassQueuePop/<path>, ns/op at backlog
// depth 10⁵ may be at most popFlatness times ns/op at depth 10³, and no depth
// may allocate. The no-allocation half also covers BenchmarkTSDBAppend/bound,
// a sample through a bound TSDB handle (see mustNotAllocate).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of a test2json line benchdiff needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// threshold is the maximum allowed fractional move, in the bad direction, of
// a guarded metric against the baseline.
const threshold = 0.20

// higherMetrics are the guarded wall-clock throughput metrics: a drop past
// the threshold fails.
var higherMetrics = map[string]bool{"jobs_per_wall_s": true, "replayed_jobs_per_wall_s": true, "cells_per_wall_s": true}

// lowerMetrics are the guarded lower-is-better metrics: a rise past the
// threshold fails. peak_heap_mb is the sweep engine's bounded-memory contract
// — the worker pool exists so a thousand-cell matrix holds a few cells of
// scratch, not a goroutine per cell — and this is where that bound is
// enforced.
var lowerMetrics = map[string]bool{"peak_heap_mb": true}

// traceOverhead and priorityOverhead cap the two interleaved cost ratios: the
// traced replay over the untraced one, and the slo-urgency priority axis over
// the constant default, each measured within one run.
const traceOverhead, priorityOverhead = 0.10, 0.10

// capped are the fresh run's readings held under a fixed limit: the two ratios
// above, in percent, and two counts, the same on any box — a served job's
// requests on the wire (a poll shared by a burst of 8 reads ≈ 1.2, one per job
// ≥ 2) and a replayed job's heap allocations (≈ 9 with owned clock events and a
// reused routing snapshot, ≈ 20 without).
var capped = []struct {
	bench, metric, format string
	limit                 float64
}{
	{"BenchmarkLoadgenReplayTraced", "trace_overhead_pct",
		"tracing overhead: %.1f%% traced-vs-untraced replay cost (limit %.0f%%)", traceOverhead * 100},
	{"BenchmarkLoadgenReplayPriority", "priority_overhead_pct",
		"priority overhead: %.1f%% slo-urgency-vs-constant replay cost (limit %.0f%%)", priorityOverhead * 100},
	{"BenchmarkServedSubmit", "http_requests_per_job",
		"served path: %.2f HTTP requests per job (limit %.1f)", 1.5},
	{"BenchmarkLoadgenReplayLong", "allocs_per_job",
		"replay path: %.1f heap allocations per job (limit %.0f)", 10},
}

// parseFile reconstructs the benchmark result lines from a test2json stream
// and returns metric values per benchmark: bench → metric unit → value.
// test2json splits one logical result line across output events (the padded
// name ends one event, the numbers arrive in the next), so the stream's
// output text is reassembled before line parsing.
func parseFile(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: not a test2json stream: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	results := make(map[string]map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		name, metrics, ok := parseResultLine(line)
		if !ok {
			continue
		}
		results[name] = metrics
	}
	return results, nil
}

// parseResultLine parses one `BenchmarkName  N  v1 unit1  v2 unit2 ...`
// result line. ok is false for non-result lines.
func parseResultLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	metrics := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return stripProcs(fields[0]), metrics, true
}

// stripProcs drops the -GOMAXPROCS suffix `go test` appends to benchmark
// names when it is not 1.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// has reports whether results hold the named benchmark or sub-benchmarks of
// it — reporting the metric, when the name is given as "Benchmark:metric".
func has(results map[string]map[string]float64, name string) bool {
	name, metric, _ := strings.Cut(name, ":")
	for n, m := range results {
		if n != name && !strings.HasPrefix(n, name+"/") {
			continue
		}
		if _, ok := m[metric]; ok || metric == "" {
			return true
		}
	}
	return false
}

// popFlatness bounds ns/op at backlog depth 10⁵ over depth 10³ for every
// BenchmarkClassQueuePop path. A 4-ary heap is 5/3 the height at the deeper
// mark and no longer fits the cache: the built-in paths measure 1.3–2.6×
// (EXPERIMENTS.md h-backlog-flat). √n growth would read 10×, a linear scan
// 100×.
const popFlatness = 4.0

const popBench, boundAppendBench = "BenchmarkClassQueuePop/", "BenchmarkTSDBAppend/bound"

// mustNotAllocate names the benchmarks held to 0 allocs/op: the per-dispatch
// queue pop and the per-sample bound TSDB append run once or many times per
// job on the served path, where an allocation each is a GC cycle sooner.
func mustNotAllocate(name string) bool {
	return strings.HasPrefix(name, popBench) || name == boundAppendBench
}

func main() {
	require := flag.String("require", "", "comma-separated benchmarks that must be present in both files")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-require b1,b2] baseline.json fresh.json")
		os.Exit(2)
	}
	baseline, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	// Required benchmarks must exist on both sides before any comparison:
	// a missing one means the gate would silently stop guarding it.
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		missing := false
		if !has(baseline, name) {
			fmt.Fprintf(os.Stderr, "benchdiff: required benchmark %s absent from baseline %s\n", name, flag.Arg(0))
			missing = true
		}
		if !has(fresh, name) {
			fmt.Fprintf(os.Stderr, "benchdiff: required benchmark %s absent from fresh run %s\n", name, flag.Arg(1))
			missing = true
		}
		if missing {
			os.Exit(1)
		}
	}

	benches := make([]string, 0, len(baseline))
	for name := range baseline {
		benches = append(benches, name)
	}
	sort.Strings(benches) // keeps the diff log stable across runs

	failed := false
	compared := 0
	for _, name := range benches {
		fm, ok := fresh[name]
		if !ok {
			fmt.Printf("SKIP %s: absent from fresh run\n", name)
			continue
		}
		for metric, base := range baseline[name] {
			if (!higherMetrics[metric] && !lowerMetrics[metric]) || base <= 0 {
				continue
			}
			cur, ok := fm[metric]
			if !ok {
				fmt.Printf("SKIP %s %s: absent from fresh run\n", name, metric)
				continue
			}
			compared++
			change := (cur - base) / base
			status := "ok  "
			// Higher-is-better fails on a drop; lower-is-better on a rise.
			if lowerMetrics[metric] {
				if change > threshold {
					status = "FAIL"
					failed = true
				}
			} else if change < -threshold {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s %s %s: baseline %.0f, fresh %.0f (%+.1f%%)\n",
				status, name, metric, base, cur, change*100)
		}
	}
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			fmt.Printf("NEW  %s: absent from baseline\n", name)
		}
	}
	// Capped readings of the fresh run alone (see capped).
	for _, c := range capped {
		v, ok := fresh[c.bench][c.metric]
		if !ok {
			continue
		}
		compared++
		status := "ok  "
		if v > c.limit {
			status = "FAIL"
			failed = true
		}
		fmt.Printf(status+" "+c.format+"\n", v, c.limit)
	}
	// Zero-allocation and pop-flatness rules: the queue's extraction cost
	// across backlog depths, measured within the fresh run.
	const deep, shallow = "/depth=100000", "/depth=1000"
	var held []string
	for name := range fresh {
		if mustNotAllocate(name) {
			held = append(held, name)
		}
	}
	sort.Strings(held)
	for _, name := range held {
		m := fresh[name]
		if allocs := m["allocs/op"]; allocs > 0 {
			failed = true
			fmt.Printf("FAIL %s: %.0f allocs/op, want 0\n", name, allocs)
		}
		path, isDeep := strings.CutSuffix(name, deep)
		if !isDeep {
			continue
		}
		base, ok := fresh[path+shallow]
		if !ok || base["ns/op"] <= 0 {
			failed = true
			fmt.Printf("FAIL %s: no %s sibling to compare against\n", name, shallow)
			continue
		}
		compared++
		ratio := m["ns/op"] / base["ns/op"]
		status := "ok  "
		if ratio > popFlatness {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s pop flatness %s: %.0f ns/op at depth 1e5 vs %.0f at 1e3 (%.1fx, limit %.0fx)\n",
			status, strings.TrimPrefix(path, popBench), m["ns/op"], base["ns/op"], ratio, popFlatness)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no guarded metrics in common — wrong files?")
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: benchmark gate failed (threshold %.0f%% vs %s, tracing overhead limit %.0f%%, priority overhead limit %.0f%%)\n",
			threshold*100, flag.Arg(0), traceOverhead*100, priorityOverhead*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d guarded metrics within %.0f%% of baseline\n", compared, threshold*100)
}
