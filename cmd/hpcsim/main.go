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
	drivers := []struct {
		id string
		fn func(int64) (*experiments.Table, error)
	}{
		{"table1", table(experiments.RunTable1)},
		{"figure1", table(experiments.RunFigure1)},
		{"figure2", table(experiments.RunFigure2)},
		{"bond", table(experiments.RunBondSweep)},
		{"shotrate", table(experiments.RunShotRateSweep)},
		{"gres", table(experiments.RunGRESTimeshare)},
		{"drift", table(experiments.RunDriftDetection)},
		{"preempt", table(experiments.RunPreemption)},
		{"sqd", table(experiments.RunSQD)},
		{"malleable", table(experiments.RunMalleable)},
		{"hints", table(experiments.RunDurationHints)},
		{"fairshare", table(experiments.RunFairShare)},
	}

	ran := false
	for _, d := range drivers {
		if exp != "all" && exp != d.id {
			continue
		}
		ran = true
		t, err := d.fn(seed)
		if err != nil {
			return fmt.Errorf("%s: %w", d.id, err)
		}
		fmt.Println(t.String())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// table adapts an experiment's Run function to the driver table: hpcsim
// prints the rendered table and drops the typed rows.
func table[R any](run func(int64) (R, *experiments.Table, error)) func(int64) (*experiments.Table, error) {
	return func(seed int64) (*experiments.Table, error) {
		_, t, err := run(seed)
		return t, err
	}
}
