package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseReassemblesSplitLines feeds parse a test2json stream in which one
// result line arrives in two output events, as `go tool test2json` writes a
// benchmark's padded name and its numbers, and checks every name loses its
// -GOMAXPROCS suffix.
func TestParseReassemblesSplitLines(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"start","Package":"hpcqc"}`,
		`{"Action":"output","Package":"hpcqc","Output":"goos: linux\n"}`,
		`{"Action":"output","Package":"hpcqc","Test":"BenchmarkLoadgenReplay","Output":"BenchmarkLoadgenReplay-2   \t"}`,
		`{"Action":"output","Package":"hpcqc","Test":"BenchmarkLoadgenReplay","Output":"     100\t  12345 ns/op\t  150000 jobs_per_wall_s\t  9 allocs/op\n"}`,
		`{"Action":"output","Package":"hpcqc","Output":"BenchmarkClassQueuePop/fifo/depth=1000-16 \t 1000\t 60.5 ns/op\n"}`,
		`{"Action":"output","Package":"hpcqc","Output":"BenchmarkOneCore \t 5\t 3 ns/op\n"}`,
		`{"Action":"output","Package":"hpcqc","Output":"PASS\n"}`,
		`{"Action":"pass","Package":"hpcqc"}`,
	}, "\n")
	got, err := parse(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	want := results{
		"BenchmarkLoadgenReplay":                 {"ns/op": 12345, "jobs_per_wall_s": 150000, "allocs/op": 9},
		"BenchmarkClassQueuePop/fifo/depth=1000": {"ns/op": 60.5},
		"BenchmarkOneCore":                       {"ns/op": 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
	if _, err := parse(strings.NewReader("BenchmarkX 1 2 ns/op\n")); err == nil {
		t.Fatal("parse accepted plain text as a test2json stream")
	}
	for in, want := range map[string]string{
		"BenchmarkX-16":          "BenchmarkX",
		"BenchmarkX":             "BenchmarkX",
		"BenchmarkX/mode-a":      "BenchmarkX/mode-a",
		"BenchmarkX/devices-4-2": "BenchmarkX/devices-4",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// pairsOf returns base readings 100, 101, … and change readings c[i] =
// b[i] + delta[i].
func pairsOf(delta ...float64) (b, c []float64) {
	for i, d := range delta {
		b = append(b, 100+float64(i))
		c = append(c, 100+float64(i)+d)
	}
	return b, c
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestJudgeVerdictRule(t *testing.T) {
	nineOfTen := append(repeat(20, 9), -1)
	cases := []struct {
		name  string
		lower bool
		delta []float64
		want  string
	}{
		{"9/10 wins, medians apart", false, nineOfTen, "better"},
		{"9/10 wins of a lower-is-better metric", true, nineOfTen, "worse"},
		{"9/10 losses", false, append(repeat(-20, 9), 1), "worse"},
		{"10/10 wins", false, repeat(20, 10), "better"},
		{"8/10 wins", false, append(repeat(20, 8), -1, -1), "unresolved"},
		{"9 wins and a tie", false, append(repeat(20, 9), 0), "better"},
		{"8 wins and two ties", false, append(repeat(20, 8), 0, 0), "unresolved"},
		{"9 pairs, all won", false, repeat(20, 9), "unresolved"},
		{"9 pairs, all lost", false, repeat(-20, 9), "unresolved"},
		// The base's readings 100…109 have an IQR of 4.5.
		{"10/10 wins, medians within the base's IQR", false, repeat(4, 10), "unresolved"},
		{"10/10 wins, medians just past the base's IQR", false, repeat(5, 10), "better"},
	}
	for _, tc := range cases {
		b, c := pairsOf(tc.delta...)
		if got := judge(io.Discard, "m", tc.lower, b, c); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSuiteFailsOnWorse checks that only a worse verdict on a judged metric
// fails the suite, and that unjudged metrics are not judged.
func TestSuiteFailsOnWorse(t *testing.T) {
	run := func(name, metric string, v float64) results { return results{name: {metric: v}} }
	var lose, win, unjudged [2][]results
	for i := 0; i < 10; i++ {
		v := 1000 + float64(i)
		lose[0] = append(lose[0], run("BenchmarkLoadgenReplay", "jobs_per_wall_s", v))
		lose[1] = append(lose[1], run("BenchmarkLoadgenReplay", "jobs_per_wall_s", v-100))
		win[0] = append(win[0], run("BenchmarkSweepWideMatrix", "peak_heap_mb", v))
		win[1] = append(win[1], run("BenchmarkSweepWideMatrix", "peak_heap_mb", v-100))
		unjudged[0] = append(unjudged[0], run("BenchmarkLoadgenReplay", "ns/op", v))
		unjudged[1] = append(unjudged[1], run("BenchmarkLoadgenReplay", "ns/op", v+100))
	}
	for _, tc := range []struct {
		runs      [2][]results
		fail      bool
		row, want string
	}{
		{lose, true, "BenchmarkLoadgenReplay jobs_per_wall_s", "worse"},
		{win, false, "BenchmarkSweepWideMatrix peak_heap_mb", "better"},
		{unjudged, false, "BenchmarkLoadgenReplay ns/op", ""},
	} {
		var out bytes.Buffer
		if got := judgeSuite(&out, tc.runs, nil); got != tc.fail {
			t.Errorf("%s: judgeSuite failed = %v, want %v\n%s", tc.row, got, tc.fail, out.String())
		}
		judged := strings.Contains(out.String(), tc.row)
		if judged != (tc.want != "") || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: want verdict %q:\n%s", tc.row, tc.want, out.String())
		}
	}
}

// TestExactRulesReadTheMedian pins every exact limit and checks that each is
// read on the change side's median, not on its first, last, best or worst
// run: two bad runs of five pass, three fail.
func TestExactRulesReadTheMedian(t *testing.T) {
	limits := map[string]float64{}
	for _, c := range capped {
		limits[c.bench+" "+c.metric] = c.limit
	}
	wantLimits := map[string]float64{
		"BenchmarkLoadgenReplayTraced trace_overhead_pct":      10,
		"BenchmarkLoadgenReplayPriority priority_overhead_pct": 10,
		"BenchmarkServedSubmit http_requests_per_job":          1.5,
		"BenchmarkLoadgenReplayLong allocs_per_job":            10,
		"BenchmarkServedMixed allocs_per_job":                  340,
	}
	if !reflect.DeepEqual(limits, wantLimits) || popFlatness != 4 {
		t.Fatalf("exact limits %v, flatness %v; want %v, 4", limits, popFlatness, wantLimits)
	}

	type reading struct {
		bench, metric string
		good, bad     float64
	}
	rules := []reading{
		{popBench + "fifo/depth=1000", "allocs/op", 0, 1},
		{boundAppendBench, "allocs/op", 0, 1},
		// Depth 1e5 over depth 1e3, whose ns/op is 100 in every run below.
		{popBench + "fifo/depth=100000", "ns/op", 399, 401},
	}
	for name, limit := range wantLimits {
		bench, metric, _ := strings.Cut(name, " ")
		rules = append(rules, reading{bench, metric, limit, limit * 1.01})
	}
	for _, r := range rules {
		for _, tc := range []struct {
			values []float64
			fail   bool
		}{
			{[]float64{r.bad, r.good, r.good, r.good, r.bad}, false},
			{[]float64{r.good, r.bad, r.bad, r.bad, r.good}, true},
		} {
			var change []results
			for _, v := range tc.values {
				res := results{r.bench: {r.metric: v}}
				if strings.HasPrefix(r.bench, popBench) {
					res[popBench+"fifo/depth=1000"] = map[string]float64{"ns/op": 100}
					res[popBench+"fifo/depth=100000"] = map[string]float64{"ns/op": 100}
					res[r.bench][r.metric] = v
				}
				change = append(change, res)
			}
			var out bytes.Buffer
			if got := judgeSuite(&out, [2][]results{change, change}, nil); got != tc.fail {
				t.Errorf("%s %s over %v: failed = %v, want %v\n%s", r.bench, r.metric, tc.values, got, tc.fail, out.String())
			}
		}
	}
}

func TestRequireReadsTheChangeSide(t *testing.T) {
	base := []results{{
		"BenchmarkGone":            {"ns/op": 1},
		"BenchmarkServedSubmit":    {"ns/op": 1, "http_requests_per_job": 1.2},
		"BenchmarkClassQueuePop/x": {"ns/op": 1},
	}}
	change := []results{{
		"BenchmarkNew":             {"ns/op": 1},
		"BenchmarkServedSubmit":    {"ns/op": 1},
		"BenchmarkClassQueuePop/x": {"ns/op": 1},
	}}
	for require, fail := range map[string]bool{
		"BenchmarkNew":                                false,
		"BenchmarkClassQueuePop":                      false,
		"BenchmarkClassQueue":                         true,
		"BenchmarkGone":                               true,
		"BenchmarkServedSubmit":                       false,
		"BenchmarkServedSubmit:http_requests_per_job": true,
	} {
		var out bytes.Buffer
		if got := judgeSuite(&out, [2][]results{base, change}, []string{" ", require}); got != fail {
			t.Errorf("-require %s: failed = %v, want %v\n%s", require, got, fail, out.String())
		}
		if !strings.Contains(out.String(), "BenchmarkNew") || !strings.Contains(out.String(), "NEW") {
			t.Errorf("a benchmark absent at the base is not reported NEW:\n%s", out.String())
		}
	}
}

func TestE2ECheckNamesTheBadRun(t *testing.T) {
	var spec struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	full := map[string]float64{}
	for _, m := range spec.EndToEnd {
		full[m.Name] = 1
	}
	if err := (runResult{Correct: true, Metrics: full}).check("change", "serve-mixed", 3, spec.EndToEnd); err != nil {
		t.Fatalf("a correct, complete run failed: %v", err)
	}
	err := (runResult{Correct: false, Metrics: full}).check("base", "serve-mixed", 3, spec.EndToEnd)
	if err == nil || !strings.Contains(err.Error(), "base run of serve-mixed, seed 3") || !strings.Contains(err.Error(), "correct") {
		t.Errorf("incorrect run: err = %v", err)
	}
	for _, m := range spec.EndToEnd {
		partial := map[string]float64{}
		for k, v := range full {
			if k != m.Name {
				partial[k] = v
			}
		}
		err := (runResult{Correct: true, Metrics: partial}).check("change", "replay-steady", 7, spec.EndToEnd)
		if err == nil || !strings.Contains(err.Error(), "change run of replay-steady, seed 7") || !strings.Contains(err.Error(), m.Name) {
			t.Errorf("run without %s: err = %v", m.Name, err)
		}
	}
}

// TestAlternateOrder drives the pair loop in a scratch repository: one build
// per side, the base's from a worktree at the base revision, and the side
// order alternating by pair.
func TestAlternateOrder(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	repo := t.TempDir()
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		cmd.Dir = repo
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	if err := os.WriteFile(filepath.Join(repo, "v"), []byte("base"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("add", "v")
	git("commit", "-q", "-m", "base")
	if err := os.WriteFile(filepath.Join(repo, "v"), []byte("change"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(repo); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var trees [2]string
	var order []string
	err = alternate("HEAD", "test", 3, func(side int, tree, dir string) error {
		v, err := os.ReadFile(filepath.Join(tree, "v"))
		trees[side] = tree
		order = append(order, fmt.Sprintf("build %d %s", side, v))
		return err
	}, func(p, side int, tree, dir string) error {
		if tree != trees[side] {
			t.Errorf("pair %d side %d runs in %s, built in %s", p, side, tree, trees[side])
		}
		order = append(order, fmt.Sprintf("%d/%d", p, side))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"build 0 base", "build 1 change", "0/0", "0/1", "1/1", "1/0", "2/0", "2/1"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if _, err := os.Stat(trees[0]); !os.IsNotExist(err) {
		t.Errorf("base worktree %s left behind: %v", trees[0], err)
	}
}
