package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"text/tabwriter"

	"hpcqc/internal/experiments"
)

// alternate checks base out into a worktree under .bench_build/<name>, calls
// build once per side (0 is the base's tree, 1 the working tree), then run on
// both sides in each of n pairs, the base first in even pairs. Both write in dir.
func alternate(base, name string, n int, build func(side int, tree, dir string) error,
	run func(pair, side int, tree, dir string) error) error {
	dir, err := filepath.Abs(filepath.Join(".bench_build", name))
	if err != nil {
		return err
	}
	trees := [2]string{filepath.Join(dir, "base"), "."}
	_ = os.RemoveAll(trees[0]) // a previous run's; --force takes over its registration
	if err := command(".", os.Stderr, "git", "worktree", "add", "--force", "--detach", trees[0], base); err != nil {
		return err
	}
	defer command(".", os.Stderr, "git", "worktree", "remove", "--force", trees[0])
	for side, tree := range trees {
		if err := build(side, tree, dir); err != nil {
			return err
		}
	}
	for p := 0; p < n; p++ {
		for k := 0; k < 2; k++ {
			side := k ^ p%2
			if err := run(p, side, trees[side], dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// table returns a writer for judge's rows, headed; flush it after the last.
func table(w io.Writer) *tabwriter.Writer {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbase median [q1, q3]\tchange median [q1, q3]\tΔ median\twins\tp̂ ± σ̂\tverdict")
	return tw
}

// judge writes metric's row to a table and returns its verdict by the package
// comment's rule. b[i] and c[i] are the base's and the change's pair-i readings.
func judge(w io.Writer, metric string, lower bool, b, c []float64) string {
	n := len(b)
	sign := 1.0 // RunDominance counts higher as better
	if lower {
		sign = -1
	}
	pairs := make([]int64, n)
	for i := range pairs {
		pairs[i] = int64(i)
	}
	// RunDominance fails only when given no pairs; every caller has one.
	r, _ := experiments.RunDominance(metric, "change", "base", pairs, func(i int64) (float64, float64, error) {
		return sign * c[i], sign * b[i], nil
	})
	bq1, bmed, bq3 := quartiles(b)
	cq1, cmed, cq3 := quartiles(c)
	verdict, apart := "unresolved", sign*(cmed-bmed)
	switch {
	case n < 10:
	case 10*r.AWins >= 9*n && apart > bq3-bq1:
		verdict = "better"
	case 10*r.BWins >= 9*n && -apart > bq3-bq1:
		verdict = "worse"
	}
	fmt.Fprintf(w, "%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%.3f ± %.3f\t%s\n", metric,
		bmed, bq1, bq3, cmed, cq1, cq3, 100*(cmed-bmed)/bmed, r.AWins, n, r.PHat, math.Sqrt(r.Variance), verdict)
	return verdict
}

// e2eMetric is a BENCHMARK.json end-to-end metric.
type e2eMetric struct{ Name, Better string }

// runResult is what e2e reads of a harness --out file.
type runResult struct {
	Correct bool
	Failed  int
	Metrics map[string]float64
}

// check fails when the harness found the run incorrect or it lacks one of
// metrics, which would read as 0: a win, were it lower-is-better.
func (r runResult) check(side, workload string, seed int64, metrics []e2eMetric) error {
	run := fmt.Sprintf("%s run of %s, seed %d", side, workload, seed)
	if !r.Correct {
		return fmt.Errorf("%s: \"correct\": false", run)
	}
	for _, m := range metrics {
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("%s: no %s", run, m.Name)
		}
	}
	return nil
}

// e2e is `benchdiff e2e`: the benchmark/ harness built once per side, each
// workload run untraced on seed -seed+i in pair i, and one table per
// workload. Each side's harness builds what it runs from its own checkout.
func e2e(args []string) error {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []e2eMetric `json:"end_to_end"`
	}
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchdiff e2e", flag.ContinueOnError)
	base := fs.String("base", "", "git revision the working tree is compared against")
	workload := fs.String("workload", "", "BENCHMARK.json workload to run (default: every one)")
	n := fs.Int("pairs", 10, "alternating base/change pairs of runs")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs seed+i on both sides")
	err := fs.Parse(args)
	var workloads []string
	for _, w := range spec.Workloads {
		if *workload == "" || w.Name == *workload {
			workloads = append(workloads, w.Name)
		}
	}
	if err != nil || *base == "" || *n < 1 || len(workloads) == 0 {
		return fmt.Errorf("usage: benchdiff e2e -base REV [-workload W] [-pairs N] [-seed S] (%v)", err)
	}
	var runs [2][]results // per pair: workload → metric → reading
	failed := make([][2]int, len(workloads))
	var bins [2]string
	err = alternate(*base, "e2e", *n, func(side int, tree, dir string) error {
		bins[side] = filepath.Join(dir, fmt.Sprintf("side%d.bench", side))
		return goBuild(side, tree, bins[side], "hpcqc/benchmark", "build", "-C", "benchmark")
	}, func(p, side int, tree, dir string) error {
		s, res := *seed+int64(p), make(results)
		for i, w := range workloads {
			out := filepath.Join(dir, fmt.Sprintf("%s-side%d-seed%d.json", w, side, s))
			var r runResult
			err := command(tree, os.Stderr, bins[side], "--workload", w, "--seed", fmt.Sprint(s), "--trace", "0", "--out", out)
			if err == nil {
				err = readJSON(out, &r)
			}
			if err == nil {
				err = r.check([]string{"base", "change"}[side], w, s, spec.EndToEnd)
			}
			if err != nil {
				return err
			}
			failed[i][side] += r.Failed
			res[w] = r.Metrics
		}
		runs[side] = append(runs[side], res)
		return nil
	})
	if err != nil {
		return err
	}
	b, c := readings(runs[0]), readings(runs[1])
	for i, w := range workloads {
		fmt.Printf("e2e %s: base %s vs working tree, %d pairs, seeds %d..%d\n", w, *base, *n, *seed, *seed+int64(*n-1))
		tw := table(os.Stdout)
		for _, m := range spec.EndToEnd {
			judge(tw, m.Name, m.Better == "lower", b[w][m.Name], c[w][m.Name])
		}
		tw.Flush()
		fmt.Printf("failed operations: base %d, change %d\n\n", failed[i][0], failed[i][1])
	}
	return nil
}

// command runs name in dir, its output on stdout and its errors on our
// standard error.
func command(dir string, stdout io.Writer, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", name, args, err)
	}
	return nil
}

// goBuild runs `go <verb> -trimpath -buildvcs=false -o out pkg` in tree, so
// both sides' binaries differ only where their sources do — a worktree's VCS
// stamp would be the enclosing checkout's — and prints out's SHA-256.
func goBuild(side int, tree, out, pkg string, verb ...string) error {
	if err := command(tree, os.Stderr, "go", append(verb, "-trimpath", "-buildvcs=false", "-o", out, pkg)...); err != nil {
		return err
	}
	data, err := os.ReadFile(out)
	if err == nil {
		fmt.Printf("benchdiff: %s %s sha256 %x\n", []string{"base", "change"}[side], filepath.Base(out), sha256.Sum256(data))
	}
	return err
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating linearly between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(q float64) float64 {
		i, f := math.Modf(q * float64(len(s)-1))
		return s[int(i)] + f*(s[min(int(i)+1, len(s)-1)]-s[int(i)])
	}
	return at(0.25), at(0.5), at(0.75)
}
