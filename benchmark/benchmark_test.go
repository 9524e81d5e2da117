package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: a serve
// rep re-executes os.Executable() with the serve-rep subcommand.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == serveChild {
		if err := serveChildMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestContract holds BENCHMARK.json and the harness together: the same
// workloads, the same metric names, and every limit the driver enforces
// before it makes a single run.
func TestContract(t *testing.T) {
	_, spec := testSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var have []string
	for _, w := range cliWorkloads {
		have = append(have, w.name)
	}
	for _, w := range serveWorkloads {
		have = append(have, w.name)
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if fmt.Sprint(have) != fmt.Sprint(listed) {
		t.Errorf("workloads: harness has %v, %s lists %v", have, specFile, listed)
	}

	want := append([]string(nil), endToEndNames...)
	sort.Strings(want)
	if got := names(spec.EndToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("end_to_end: harness produces %v, %s lists %v", want, specFile, got)
	}
	want = perLayerNames()
	sort.Strings(want)
	if got := names(spec.PerLayer); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per_layer: harness produces %d names, %s lists %d:\n%v\n%v", len(want), specFile, len(got), want, got)
	}
	if n := len(spec.PerLayer); n > 128 {
		t.Errorf("per_layer has %d metrics, the contract allows 128", n)
	}

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: malformed unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == mSetup && (d.Unit != "s" || d.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
}

// TestQuickRun drives every workload end to end at smoke scale — untraced,
// then traced — through the same code the full-scale runs use, including the
// qcload build, the child processes and the correctness gates.
func TestQuickRun(t *testing.T) {
	root, spec := testSpec(t)
	h := &harness{root: root, dir: t.TempDir(), spec: spec, seed: 3, seconds: time.Second, quick: true}
	for _, w := range spec.Workloads {
		res, err := h.runWorkload(w.Name, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted < 1 || len(res.Reps) != 1 || res.Input.SHA256 == "" || res.Input.Jobs < 1 {
			t.Errorf("%s: incomplete result %+v", w.Name, res)
		}
		metrics, err := pick(spec.EndToEnd, res.Metrics)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for name, v := range metrics {
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want a positive number", w.Name, name, v.Value)
			}
		}

		// replay-steady and serve-submit trace through the same code as
		// replay-backlog and serve-mixed, which enter more of it.
		if testing.Short() && (w.Name == "replay-steady" || w.Name == "serve-submit") {
			continue
		}
		res, err = h.runWorkload(w.Name, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if _, err := pick(spec.PerLayer, res.Metrics); err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		// Each path's own layers must have been entered, and the probes run.
		entered := "daemon.submit.calls"
		if findServeWorkload(w.Name) != nil {
			entered = "daemon.http.post_jobs.calls"
		}
		for _, name := range []string{entered, "admission.admit.calls", "sched.pop.d1000.ns_per_op", "qir.decode.allocs_per_op"} {
			if !(res.Metrics[name] > 0) {
				t.Errorf("%s traced: %s = %g, want > 0", w.Name, name, res.Metrics[name])
			}
		}
		if _, err := os.Stat(filepath.Join(h.dir, w.Name+"-spans.txt")); err != nil {
			t.Errorf("%s traced: spans were not written: %v", w.Name, err)
		}
	}
}

// TestGateRejects checks the report gate on the violations it exists for.
func TestGateRejects(t *testing.T) {
	ok := reportCounts{Jobs: 10, Completed: 7, Rejected: 3}
	if err := ok.check(10); err != nil {
		t.Errorf("consistent report rejected: %v", err)
	}
	for name, c := range map[string]reportCounts{
		"lost job":     {Jobs: 10, Completed: 9},
		"wrong total":  {Jobs: 9, Completed: 9},
		"submit error": {Jobs: 10, Completed: 10, SubmitErrors: 1},
	} {
		if err := c.check(10); err == nil {
			t.Errorf("%s: gate let %+v through", name, c)
		}
	}
	if _, _, _, err := checkReport("sweep", []byte(`{"results":[]}`), 10); err == nil {
		t.Error("gate let an empty sweep through")
	}
}

func TestStats(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	got, ok := spread(v)
	if want := (31.0 - 3.5) / 13.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, %v; want %g", got, ok, want)
	}
	if _, ok := spread([]float64{5}); ok {
		t.Error("a single sample has no spread")
	}
	if got := percentile(v, 99); got != 46 {
		t.Errorf("p99 of 10 samples = %g, want the largest", got)
	}
	if got := percentile(v, 50); got != 11 {
		t.Errorf("nearest-rank p50 = %g, want 11", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
}

// TestTracerSelfTime checks that self time is duration minus direct children,
// for stacked spans and for an explicit cross-goroutine parent.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(true, 8)
	outer := tr.begin(lySubmit, 7)
	inner := tr.begin(lyAdmit, 0)
	tr.end(inner)
	tr.end(outer)
	// Fix the clock readings so the arithmetic is exact.
	tr.spans[outer].start, tr.spans[outer].end = 0, 100
	tr.spans[inner].start, tr.spans[inner].end = 10, 40
	stats := tr.aggregate()
	if stats[lySubmit].self != 70 || stats[lyAdmit].self != 30 || stats[lySubmit].calls != 1 {
		t.Errorf("self times %v / %v", stats[lySubmit], stats[lyAdmit])
	}
	if tr.spans[inner].parent != outer || tr.spans[inner].job != 7 {
		t.Errorf("inner span %+v should nest under the outer one and share its job", tr.spans[inner])
	}
	if got := tr.rootCover(lySubmit, lyAdmit); got != 100 {
		t.Errorf("root cover %v, want 100", got)
	}

	flat := newTracer(false, 8)
	a := flat.begin(lyTransport, 1)
	b := flat.begin(lyPump, 0) // no stack: a second root, not a child
	c := flat.beginUnder(lyHTTPPostJobs, 0, a)
	flat.end(c)
	flat.end(b)
	flat.end(a)
	if flat.spans[b].parent != noSpan || flat.spans[c].parent != a || flat.spans[c].job != 1 {
		t.Errorf("unstacked parents wrong: %+v", flat.spans)
	}
	flat.off.Store(true)
	if id := flat.begin(lyPump, 0); id != noSpan {
		t.Errorf("a switched-off tracer recorded span %d", id)
	}
	flat.end(noSpan)
}

// results builds a results file whose every workload has the given per-rep
// values for jobs_per_s and steady values for the rest.
func results(spec *benchSpec, jobsPerSec []float64) *resultsFile {
	f := &resultsFile{Seed: 1, Seconds: 10, Env: envInfo{NumCPU: 2, GOMAXPROCS: 2}}
	for _, w := range spec.Workloads {
		r := &runResult{Workload: w.Name, Seed: 1, Correct: true, Attempted: 1, Metrics: map[string]float64{},
			Input: inputInfo{SHA256: "abc", Jobs: 100}, SetupSeconds: []float64{1, 1, 1}}
		for _, v := range jobsPerSec {
			r.Reps = append(r.Reps, repRecord{Metrics: map[string]float64{
				mJobsPerSec: v, mPeakRSS: 50, mTurnaroundP50: 2, mTurnaroundP99: 9}})
		}
		r.foldReps()
		f.Runs = append(f.Runs, r)
	}
	return f
}

func TestCompare(t *testing.T) {
	_, spec := testSpec(t)
	verdictOf := func(a, b *resultsFile) verdict {
		t.Helper()
		rows, err := compareResults(spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(spec.Workloads) * len(spec.EndToEnd); len(rows) != want {
			t.Fatalf("%d rows, want one per workload × metric = %d", len(rows), want)
		}
		for _, r := range rows {
			if r.Metric != mJobsPerSec && r.Verdict != vOK {
				t.Errorf("%s/%s: untouched metric judged %s", r.Workload, r.Metric, r.Verdict)
			}
		}
		for _, r := range rows {
			if r.Metric == mJobsPerSec {
				return r.Verdict
			}
		}
		return ""
	}
	var bound float64
	for _, d := range spec.EndToEnd {
		if d.Name == mJobsPerSec {
			bound = d.Bound
		}
	}
	// scaled returns four reps around 1000·f, rel apart from end to end.
	scaled := func(f, rel float64) []float64 {
		return []float64{1000 * f * (1 - rel/2), 1000 * f * (1 + rel/2), 1000 * f * (1 - rel/6), 1000 * f * (1 + rel/6)}
	}
	steady := scaled(1, 0.02)
	base := results(spec, steady)
	if v := verdictOf(base, results(spec, steady)); v != vOK {
		t.Errorf("identical runs: %s", v)
	}
	// jobs_per_s is higher-is-better.
	if v := verdictOf(base, results(spec, scaled(1-bound/2, 0.02))); v != vOK {
		t.Errorf("slower by half the bound: %s", v)
	}
	if v := verdictOf(base, results(spec, scaled(1-2*bound, 0.02))); v != vRegression {
		t.Errorf("slower by twice the bound: %s", v)
	}
	if v := verdictOf(base, results(spec, scaled(1, 3*bound))); v != vUnresolved {
		t.Errorf("spread three times the bound: %s", v)
	}
	if v := verdictOf(base, results(spec, scaled(4, 3*bound))); v != vOK {
		t.Errorf("wide spread but every rep better than every base rep: %s", v)
	}

	for name, mutate := range map[string]func(*resultsFile){
		"seed":   func(f *resultsFile) { f.Seed = 2 },
		"nproc":  func(f *resultsFile) { f.Env.NumCPU = 8 },
		"sha256": func(f *resultsFile) { f.Runs[0].Input.SHA256 = "def" },
		"jobs":   func(f *resultsFile) { f.Runs[1].Input.Jobs = 7 },
	} {
		other := results(spec, steady)
		mutate(other)
		if _, err := compareResults(spec, base, other); err == nil {
			t.Errorf("compare accepted files whose %s differs", name)
		}
	}
}
