// Command benchdiff is the perf gate: it judges the working tree against a
// base revision in alternating pairs of runs on one machine. From the
// repository root:
//
//	benchdiff -base REV [-pairs 10] [-require b1,b2:metric] PATTERN PKG...
//	benchdiff e2e -base REV [-workload W] [-pairs 10] [-seed 1]
//
// The first form runs the go test benchmarks matching PATTERN in each PKG,
// the second the benchmark/ harness on one BENCHMARK.json workload or on each
// in turn; alternate builds and runs both sides.
//
// One rule judges every relative metric: better (worse) when the change wins
// (loses) at least 9 pairs in 10, ties counting for neither, and the medians
// lie further apart than the base's interquartile range; otherwise, and
// always below ten pairs, unresolved. e2e judges each BENCHMARK.json
// end-to-end metric; the suite judges those in judged and fails on any worse.
//
// The suite's exact rules hold on any box and read the change side's median
// over its runs: capped, 0 allocs/op for popBench and boundAppendBench, and
// popFlatness. Each -required benchmark (or parent of sub-benchmarks;
// "name:metric" also requires the metric) must run on the change side, so
// that renaming or dropping one fails the gate; one absent at the base
// prints NEW. Names are compared without the -GOMAXPROCS suffix.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// results maps benchmark → metric unit → value.
type results = map[string]map[string]float64

// judged are the suite's relative metrics, mapped to whether lower is better;
// ns/op and sim-time metrics move with benchtime and fleet width, not code.
var judged = map[string]bool{"jobs_per_wall_s": false, "replayed_jobs_per_wall_s": false,
	"cells_per_wall_s": false, "peak_heap_mb": true}

// capped are readings held under a fixed limit. Two are cost ratios in
// percent, both variants run back to back in the same iterations: traced over
// untraced replay, and the slo-urgency priority axis over the constant one.
// Four are counts: a served job's requests on the wire (≈ 1.2 with a poll
// shared by a burst of 8, ≥ 2 with one per job), a replayed job's heap
// allocations (≈ 4.05; ≈ 5.05 when its ID is formatted and concatenated in
// two allocations, ≈ 9 when Submit copies the record out and the device
// makes a task record per dispatch, ≈ 20 when clock events are not re-armed),
// a swept job's (≈ 7.9; ≈ 12 when each admission decision builds its own
// view map) and a served job's beside an operator's scrapes (≈ 320; ≈ 470
// without the decode memo and the one rendering per scrape).
var capped = []struct {
	bench, metric string
	limit         float64
}{
	{"BenchmarkLoadgenReplayTraced", "trace_overhead_pct", 10},
	{"BenchmarkLoadgenReplayPriority", "priority_overhead_pct", 10},
	{"BenchmarkServedSubmit", "http_requests_per_job", 1.5},
	{"BenchmarkLoadgenReplayLong", "allocs_per_job", 4.5},
	{"BenchmarkSweepWideMatrix", "allocs_per_job", 8.5},
	{"BenchmarkServedMixed", "allocs_per_job", 340},
}

// parse reconstructs the benchmark result lines from a test2json stream.
// test2json splits one logical result line across output events (the padded
// name ends one event, the numbers arrive in the next), so the stream's
// output text is reassembled before line parsing.
func parse(r io.Reader) (results, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev struct{ Action, Output string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("not a test2json stream: %w", err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	res := make(results)
	for _, line := range strings.Split(text.String(), "\n") {
		if name, metrics, ok := parseResultLine(line); ok {
			res[name] = metrics
		}
	}
	return res, sc.Err()
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

// has reports whether res holds the named benchmark or sub-benchmarks of
// it — reporting the metric, when the name is given as "Benchmark:metric".
func has(res results, name string) bool {
	name, metric, _ := strings.Cut(name, ":")
	for n, m := range res {
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

// popBench and boundAppendBench are held to 0 allocs/op: the per-dispatch
// queue pop and the per-sample bound TSDB append run once or many times per
// job on the served path, where an allocation each is a GC cycle sooner.
const popBench, boundAppendBench = "BenchmarkClassQueuePop/", "BenchmarkTSDBAppend/bound"

// readings gathers each benchmark's metrics over runs, in run order.
func readings(runs []results) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, res := range runs {
		for name, metrics := range res {
			if out[name] == nil {
				out[name] = make(map[string][]float64)
			}
			for metric, v := range metrics {
				out[name][metric] = append(out[name][metric], v)
			}
		}
	}
	return out
}

// judgeSuite writes the suite's verdicts to w and reports whether the gate
// failed. runs[0] are the base's runs and runs[1] the change's, in pair order.
func judgeSuite(w io.Writer, runs [2][]results, require []string) bool {
	base, change := readings(runs[0]), readings(runs[1])
	failed, med, tw := false, make(results), table(w)
	for _, name := range sorted(change) {
		med[name] = make(map[string]float64)
		for _, metric := range sorted(change[name]) {
			b, c := base[name][metric], change[name][metric]
			_, med[name][metric], _ = quartiles(c)
			if lower, ok := judged[metric]; ok && len(b) == len(c) && judge(tw, name+" "+metric, lower, b, c) == "worse" {
				failed = true
			}
		}
		if base[name] == nil {
			fmt.Fprintf(tw, "%s\tNEW: absent at base\n", name)
		}
	}
	tw.Flush()
	for _, name := range require {
		if name = strings.TrimSpace(name); name != "" && !has(med, name) {
			fmt.Fprintf(w, "FAIL required benchmark %s absent from the change side\n", name)
			failed = true
		}
	}
	return exact(w, med) || failed
}

// exact writes a line per exact rule read on med and reports whether any
// failed.
func exact(w io.Writer, med results) bool {
	failed := false
	status := func(bad bool) string {
		if bad {
			failed = true
			return "FAIL"
		}
		return "ok  "
	}
	for _, c := range capped {
		if v, ok := med[c.bench][c.metric]; ok {
			fmt.Fprintf(w, "%s %s %s: %.3g (limit %g)\n", status(v > c.limit), c.bench, c.metric, v, c.limit)
		}
	}
	const deep, shallow = "/depth=100000", "/depth=1000"
	for _, name := range sorted(med) {
		if !strings.HasPrefix(name, popBench) && name != boundAppendBench {
			continue
		}
		m := med[name]
		if allocs := m["allocs/op"]; allocs > 0 {
			fmt.Fprintf(w, "%s %s: %g allocs/op, want 0\n", status(true), name, allocs)
		}
		path, isDeep := strings.CutSuffix(name, deep)
		if !isDeep {
			continue
		}
		base, ok := med[path+shallow]
		if !ok || base["ns/op"] <= 0 {
			fmt.Fprintf(w, "%s %s: no %s sibling to compare against\n", status(true), name, shallow)
			continue
		}
		ratio := m["ns/op"] / base["ns/op"]
		fmt.Fprintf(w, "%s pop flatness %s: %.0f ns/op at depth 1e5 vs %.0f at 1e3 (%.1fx, limit %.0fx)\n",
			status(ratio > popFlatness), strings.TrimPrefix(path, popBench), m["ns/op"], base["ns/op"], ratio, popFlatness)
	}
	return failed
}

// sorted returns m's keys in order, which keeps the output stable.
func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "e2e" {
		if err := e2e(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff e2e:", err)
			os.Exit(2)
		}
		return
	}
	base := flag.String("base", "", "git revision the working tree is compared against")
	n := flag.Int("pairs", 10, "alternating base/change pairs of runs")
	require := flag.String("require", "", "comma-separated benchmarks (or benchmark:metric) the change side must report")
	flag.Parse()
	if *base == "" || *n < 1 || flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -base REV [-pairs N] [-require b1,b2:metric] PATTERN PKG...")
		os.Exit(2)
	}
	pattern, pkgs := flag.Arg(0), flag.Args()[1:]
	bin := func(dir string, side, pkg int) string {
		return filepath.Join(dir, fmt.Sprintf("side%d-pkg%d.test", side, pkg))
	}
	var runs [2][]results
	err := alternate(*base, "suite", *n, func(side int, tree, dir string) error {
		for i, pkg := range pkgs {
			if err := goBuild(side, tree, bin(dir, side, i), pkg, "test", "-c"); err != nil {
				return err
			}
		}
		return nil
	}, func(p, side int, tree, dir string) error {
		var out bytes.Buffer
		// A test binary runs in its package's directory, as under go test.
		for i, pkg := range pkgs {
			if err := command(filepath.Join(tree, pkg), &out, "go", "tool", "test2json", "-p", pkg, bin(dir, side, i),
				"-test.v=test2json", "-test.run=^$", "-test.bench="+pattern, "-test.benchmem", "-test.timeout=1h"); err != nil {
				return err
			}
		}
		res, err := parse(&out)
		runs[side] = append(runs[side], res)
		return err
	})
	if err == nil && len(runs[1][0]) == 0 {
		err = fmt.Errorf("no benchmark matched %q on the change side", pattern)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fmt.Printf("benchdiff: base %s vs working tree, %d pairs, %s in %s\n", *base, *n, pattern, strings.Join(pkgs, " "))
	if judgeSuite(os.Stdout, runs, strings.Split(*require, ",")) {
		fmt.Fprintln(os.Stderr, "benchdiff: benchmark gate failed")
		os.Exit(1)
	}
	fmt.Println("benchdiff: no judged metric worse, every exact rule holds")
}
