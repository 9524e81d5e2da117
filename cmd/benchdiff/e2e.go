package main

// e2e is `benchdiff e2e`, run from the repository root: the benchmark/
// harness built at -base (a worktree under .bench_build/e2e) and from the
// working tree, -pairs alternating pairs of one workload on seeds -seed, …,
// and each BENCHMARK.json end-to-end metric judged by choosing-metrics §8
// through experiments.RunDominance: better (worse) when the change wins
// (loses) ≥ 9 pairs in 10, ties counting for neither, and the medians lie
// further apart than the base's interquartile range; otherwise, and always
// below ten pairs, unresolved.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

	"hpcqc/internal/experiments"
)

func e2e(args []string) error {
	fs := flag.NewFlagSet("benchdiff e2e", flag.ContinueOnError)
	base := fs.String("base", "", "git revision the working tree is compared against")
	workload := fs.String("workload", "", "BENCHMARK.json workload to run")
	n := fs.Int("pairs", 10, "alternating base/change pairs of runs")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs seed+i on both sides")
	if err := fs.Parse(args); err != nil || *base == "" || *workload == "" || *n < 1 {
		return fmt.Errorf("usage: benchdiff e2e -base REV -workload W [-pairs N] [-seed S] (%v)", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "e2e"))
	if err == nil {
		err = readJSON("BENCHMARK.json", &spec)
	}
	if err != nil {
		return err
	}
	// Each side's harness finds its own checkout root and builds what it
	// runs from its own source.
	trees := [2]string{filepath.Join(dir, "base"), "."}
	_ = os.RemoveAll(trees[0]) // a previous run's; --force takes over its registration
	if err := run(".", "git", "worktree", "add", "--force", "--detach", trees[0], *base); err != nil {
		return err
	}
	defer run(".", "git", "worktree", "remove", "--force", trees[0])
	var bins [2]string
	for side, tree := range trees {
		bins[side] = filepath.Join(dir, fmt.Sprintf("side%d.bench", side))
		if err := run(tree, "go", "build", "-C", "benchmark", "-o", bins[side], "hpcqc/benchmark"); err != nil {
			return err
		}
	}

	seeds := make([]int64, *n)
	values := [2]map[string][]float64{{}, {}}
	var failed [2]int
	for p := range seeds {
		seeds[p] = *seed + int64(p)
		for k := 0; k < 2; k++ {
			side := k ^ p%2 // base first on even pairs, change first on odd ones
			out := filepath.Join(dir, fmt.Sprintf("side%d-seed%d.json", side, seeds[p]))
			var res struct {
				Failed  int
				Metrics map[string]float64
			}
			if err := run(trees[side], bins[side], "--workload", *workload, "--seed", fmt.Sprint(seeds[p]),
				"--trace", "0", "--out", out); err != nil {
				return err
			}
			if err := readJSON(out, &res); err != nil {
				return err
			}
			failed[side] += res.Failed
			for _, m := range spec.EndToEnd {
				values[side][m.Name] = append(values[side][m.Name], res.Metrics[m.Name])
			}
		}
	}

	fmt.Printf("e2e %s: base %s vs working tree, %d pairs, seeds %d..%d\n", *workload, *base, *n, seeds[0], seeds[*n-1])
	fmt.Printf("%-18s %28s %28s %8s %5s %8sp̂ ± σ̂  verdict\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "Δ median", "wins", "")
	for _, m := range spec.EndToEnd {
		b, c := values[0][m.Name], values[1][m.Name]
		sign := 1.0 // RunDominance counts higher as better
		if m.Better == "lower" {
			sign = -1
		}
		r, err := experiments.RunDominance(m.Name, "change", "base", seeds, func(s int64) (float64, float64, error) {
			return sign * c[s-seeds[0]], sign * b[s-seeds[0]], nil
		})
		if err != nil {
			return err
		}
		bq1, bmed, bq3 := quartiles(b)
		cq1, cmed, cq3 := quartiles(c)
		verdict, apart := "unresolved", sign*(cmed-bmed)
		switch {
		case *n < 10:
		case 10*r.AWins >= 9*(*n) && apart > bq3-bq1:
			verdict = "better"
		case 10*r.BWins >= 9*(*n) && -apart > bq3-bq1:
			verdict = "worse"
		}
		fmt.Printf("%-18s %28s %28s %+7.1f%% %2d/%-2d %6.3f ± %.3f  %s\n", m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3), fmt.Sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3),
			100*(cmed-bmed)/bmed, r.AWins, *n, r.PHat, math.Sqrt(r.Variance), verdict)
	}
	fmt.Printf("failed operations: base %d, change %d\n", failed[0], failed[1])
	return nil
}

// run runs name in dir, its output on our standard error.
func run(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %v: %w", name, args, err)
	}
	return nil
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
