package main

import "testing"

func TestRunSingleExperiments(t *testing.T) {
	// The fast experiments run end to end through the CLI driver.
	for _, exp := range []string{"table1", "gres", "preempt", "malleable", "shotrate", "hints", "fairshare"} {
		if err := run(exp, 7); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("warp-drive", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
