// Command hpcsim regenerates the paper's evaluation artifacts: every table
// and figure reproduction plus the DESIGN.md ablations, printed as aligned
// text tables. Run with -exp all (default) or a specific experiment ID.
//
// Usage:
//
//	hpcsim [-exp table1|figure1|figure2|bond|shotrate|gres|drift|preempt|sqd|malleable|hints|fairshare|all] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcqc/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (table1, figure1, figure2, bond, shotrate, gres, drift, preempt, sqd, malleable, hints, fairshare, all)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	flag.Parse()

	if err := run(*exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "hpcsim:", err)
		os.Exit(1)
	}
}

func run(exp string, seed int64) error {
	type driver struct {
		id  string
		fn  func(int64) (fmt.Stringer, error)
		why string
	}
	drivers := []driver{
		{"table1", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunTable1(s)
			return t, err
		}, "Table 1: workload taxonomy × scheduling policy"},
		{"figure1", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunFigure1(s)
			return t, err
		}, "Figure 1: dev→HPC→QPU portability"},
		{"figure2", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunFigure2(s)
			return t, err
		}, "Figure 2: architecture end-to-end"},
		{"bond", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunBondSweep(s)
			return t, err
		}, "A1: MPS bond-dimension ablation"},
		{"shotrate", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunShotRateSweep(s)
			return t, err
		}, "A2: shot-rate sweep"},
		{"gres", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunGRESTimeshare(s)
			return t, err
		}, "A3: GRES timeshares"},
		{"drift", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunDriftDetection(s)
			return t, err
		}, "A4: drift detection"},
		{"preempt", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunPreemption(s)
			return t, err
		}, "A5: preemption"},
		{"sqd", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunSQD(s)
			return t, err
		}, "A6: SQD post-processing"},
		{"malleable", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunMalleable(s)
			return t, err
		}, "A7: malleable classical jobs"},
		{"hints", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunDurationHints(s)
			return t, err
		}, "A8: expected-QPU-duration hints"},
		{"fairshare", func(s int64) (fmt.Stringer, error) {
			_, t, err := experiments.RunFairShare(s)
			return t, err
		}, "A9: fair share across users"},
	}

	ran := false
	for _, d := range drivers {
		if exp != "all" && exp != d.id {
			continue
		}
		ran = true
		table, err := d.fn(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", d.id, err)
		}
		fmt.Println(table.String())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
