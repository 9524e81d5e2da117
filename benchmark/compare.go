package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// `compare A.json B.json` judges result file B against base A with the bounds
// BENCHMARK.json fixes: one row per workload × end-to-end metric, never a
// combined score.

type verdict string

const (
	vOK         verdict = "ok"
	vRegression verdict = "REGRESSION"
	// vUnresolved marks a metric whose rep-to-rep spread is wider than its
	// bound: the runs cannot tell "unchanged" from "worse", and saying
	// "unchanged" would be a claim the data does not support.
	vUnresolved verdict = "unresolved"
)

type compareRow struct {
	Workload, Metric string
	Base, New        float64
	// Worse is how much worse New is than Base, as a share of Base, in the
	// metric's own direction (negative: better).
	Worse, Bound float64
	// Spread is the wider of the two files' rep-to-rep spreads; known is
	// false when neither has two reps to take one from.
	Spread  float64
	Known   bool
	Verdict verdict
}

func (f *resultsFile) untraced(workload string) *runResult {
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

// comparable refuses pairs of files a comparison would be meaningless for.
func comparable(spec *benchSpec, a, b *resultsFile) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ (%d, %d)", a.Seed, b.Seed)
	case a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Errorf("nproc/GOMAXPROCS differ (%d/%d, %d/%d)", a.Env.NumCPU, a.Env.GOMAXPROCS, b.Env.NumCPU, b.Env.GOMAXPROCS)
	case a.Quick != b.Quick || a.Seconds != b.Seconds:
		return fmt.Errorf("run scale differs (quick %v/%v, %gs/%gs)", a.Quick, b.Quick, a.Seconds, b.Seconds)
	}
	for _, w := range spec.Workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		if ra == nil || rb == nil {
			return fmt.Errorf("%s: missing from one of the files", w.Name)
		}
		if ra.Input != rb.Input {
			return fmt.Errorf("%s: inputs differ (sha256 %.12s… with %d jobs, %.12s… with %d jobs)",
				w.Name, ra.Input.SHA256, ra.Input.Jobs, rb.Input.SHA256, rb.Input.Jobs)
		}
	}
	return nil
}

// allBetter reports whether every rep of b reads better than every rep of a.
func allBetter(a, b []float64, higherIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if higherIsBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func compareResults(spec *benchSpec, a, b *resultsFile) ([]compareRow, error) {
	if err := comparable(spec, a, b); err != nil {
		return nil, err
	}
	var rows []compareRow
	for _, w := range spec.Workloads {
		ra, rb := a.untraced(w.Name), b.untraced(w.Name)
		for _, d := range spec.EndToEnd {
			row := compareRow{Workload: w.Name, Metric: d.Name, Base: ra.Metrics[d.Name], New: rb.Metrics[d.Name], Bound: d.Bound}
			if row.Base == 0 {
				return nil, fmt.Errorf("%s: %s is 0 in the base file", w.Name, d.Name)
			}
			higher := d.Better == "higher"
			row.Worse = (row.New - row.Base) / row.Base
			if higher {
				row.Worse = -row.Worse
			}
			va, vb := repValues(ra, d.Name), repValues(rb, d.Name)
			for _, v := range [][]float64{va, vb} {
				if s, ok := spread(v); ok {
					row.Known = true
					row.Spread = max(row.Spread, s)
				}
			}
			switch {
			case row.Known && row.Spread > d.Bound && !allBetter(va, vb, higher):
				row.Verdict = vUnresolved
			case row.Worse > d.Bound:
				row.Verdict = vRegression
			default:
				row.Verdict = vOK
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare BASE.json NEW.json")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := readResults(fromRoot(root, args[0]))
	if err != nil {
		return err
	}
	b, err := readResults(fromRoot(root, args[1]))
	if err != nil {
		return err
	}
	rows, err := compareResults(spec, a, b)
	if err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	fmt.Printf("%-16s %-20s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "spread", "verdict")
	regressions := 0
	for _, r := range rows {
		spreadCol := "n=1"
		if r.Known {
			spreadCol = fmt.Sprintf("%.1f%%", 100*r.Spread)
		}
		fmt.Printf("%-16s %-20s %14.4f %14.4f %+8.1f%% %6.0f%% %8s  %s\n", r.Workload, r.Metric, r.Base, r.New,
			100*r.Worse, 100*r.Bound, spreadCol, r.Verdict)
		if r.Verdict == vRegression {
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
