// workflow_campaign runs a multi-step hybrid campaign as the plain program it
// is: a classical step plans a detuning sweep, one quantum run per sweep
// point prepares the Z2-ordered phase at that detuning, and a classical
// analysis step folds the results into an order-parameter curve — the
// phase-boundary scan a neutral-atom user actually runs. The whole campaign
// retargets with -qpu, so the identical code executes on the laptop emulator,
// the HPC tensor-network emulator, or the QPU model. Runs are sequential:
// concurrency across programs belongs to the middleware's scheduler, not the
// client.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"hpcqc/internal/core"
	"hpcqc/internal/emulator"
	"hpcqc/internal/qir"
)

func main() {
	qpu := flag.String("qpu", "local-sv", "execution resource for every quantum step")
	points := flag.Int("points", 5, "sweep points")
	flag.Parse()

	rt, err := core.NewRuntimeFor(*qpu, "", []string{"QRMI_SEED=21", "QRMI_QPU_POLL_ADVANCE_S=120"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign on %s (%d sweep points)\n\n", rt.Target(), *points)

	const (
		n     = 7
		shots = 400
	)
	omega := 2 * math.Pi

	// Plan (classical): final detunings from below to above the ordering
	// transition, ascending — the one source of truth for the later steps.
	final := make([]float64, *points)
	fmt.Printf("plan: final detunings (rad/µs):")
	for i := range final {
		final[i] = omega * (0.5 + 2.5*float64(i)/float64(*points-1))
		fmt.Printf(" %.1f", final[i])
	}
	fmt.Println()

	// Prepare (quantum): one adiabatic preparation per sweep point, each
	// program built from the plan right before it runs.
	results := make([]*qir.Result, *points)
	for i, det := range final {
		seq := qir.NewAnalogSequence(qir.LinearRegister("chain", n, 5.5))
		// Ramp up, sweep detuning through the transition, ramp down.
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.RampWaveform{Dur: 300, Start: 0, Stop: omega},
			Detuning:  qir.ConstantWaveform{Dur: 300, Val: -3 * omega},
		})
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: 2600, Val: omega},
			Detuning:  qir.RampWaveform{Dur: 2600, Start: -3 * omega, Stop: det},
		})
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.RampWaveform{Dur: 300, Start: omega, Stop: 0},
			Detuning:  qir.ConstantWaveform{Dur: 300, Val: det},
		})
		if results[i], err = rt.Execute(qir.NewAnalogProgram(seq, shots)); err != nil {
			log.Fatalf("prepare-%d: %v", i, err)
		}
	}

	// Analyse (classical): fold every preparation into the order-parameter
	// curve.
	fmt.Println("\nfinal detuning   staggered order   rydberg density")
	for i, res := range results {
		order, err := emulator.StaggeredMagnetization(res.Counts)
		if err != nil {
			log.Fatal(err)
		}
		density, err := emulator.RydbergDensity(res.Counts)
		if err != nil {
			log.Fatal(err)
		}
		bar := ""
		for k := 0; k < int(order*40); k++ {
			bar += "#"
		}
		fmt.Printf("   %6.2f            %.3f          %.3f   %s\n", final[i], order, density, bar)
	}

	fmt.Printf("\ncampaign finished: plan, %d preparations, analysis\n", *points)
	fmt.Println("re-run with -qpu hpc-mps or -qpu qpu-onprem: the program is unchanged")
}
