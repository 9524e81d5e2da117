package core

import (
	"errors"
	"fmt"
	"math/rand"

	"hpcqc/internal/qir"
)

// BuildFunc constructs the quantum program for a parameter vector — the
// quantum half of a variational hybrid loop.
type BuildFunc func(params []float64) (*qir.Program, error)

// CostFunc turns measured counts into a scalar cost — the classical half.
type CostFunc func(counts qir.Counts) float64

// HybridResult summarizes a variational run.
type HybridResult struct {
	BestParams []float64
	BestCost   float64
	// CostHistory holds the accepted cost per iteration.
	CostHistory []float64
	// Evaluations counts quantum executions performed.
	Evaluations int
}

// HybridOptions tunes RunHybrid.
type HybridOptions struct {
	// Iterations is the optimizer budget (default 20).
	Iterations int
	// Step is the SPSA gradient step size (default 0.1).
	Step float64
	// Perturbation is the SPSA finite-difference magnitude (default 0.15).
	Perturbation float64
	// Seed drives the SPSA perturbation directions.
	Seed int64
	// OnIteration observes progress (iteration, cost) when non-nil.
	OnIteration func(iter int, cost float64)
}

// RunHybrid executes a variational quantum-classical loop against the bound
// target using SPSA (simultaneous perturbation stochastic approximation),
// the standard optimizer for shot-noise-limited hybrid workloads. The same
// loop runs unchanged on every backend — it is the paper's canonical hybrid
// program shape (Figure 1's "post process job, iterate through
// hyperparameters").
func (r *Runtime) RunHybrid(initial []float64, build BuildFunc, cost CostFunc, opts HybridOptions) (*HybridResult, error) {
	if build == nil || cost == nil {
		return nil, errors.New("core: hybrid loop needs build and cost functions")
	}
	if len(initial) == 0 {
		return nil, errors.New("core: hybrid loop needs at least one parameter")
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 20
	}
	if opts.Step <= 0 {
		opts.Step = 0.1
	}
	if opts.Perturbation <= 0 {
		opts.Perturbation = 0.15
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	evaluate := func(params []float64) (float64, error) {
		p, err := build(params)
		if err != nil {
			return 0, fmt.Errorf("core: building program: %w", err)
		}
		res, err := r.Execute(p)
		if err != nil {
			return 0, err
		}
		return cost(res.Counts), nil
	}

	params := append([]float64(nil), initial...)
	best := append([]float64(nil), initial...)
	bestCost, err := evaluate(params)
	if err != nil {
		return nil, err
	}
	out := &HybridResult{
		BestParams:  best,
		BestCost:    bestCost,
		CostHistory: []float64{bestCost},
		Evaluations: 1,
	}

	delta := make([]float64, len(params))
	plus := make([]float64, len(params))
	minus := make([]float64, len(params))
	for iter := 0; iter < opts.Iterations; iter++ {
		// Rademacher perturbation direction.
		for i := range delta {
			if rng.Intn(2) == 0 {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
			plus[i] = params[i] + opts.Perturbation*delta[i]
			minus[i] = params[i] - opts.Perturbation*delta[i]
		}
		cPlus, err := evaluate(plus)
		if err != nil {
			return nil, err
		}
		cMinus, err := evaluate(minus)
		if err != nil {
			return nil, err
		}
		out.Evaluations += 2
		grad := (cPlus - cMinus) / (2 * opts.Perturbation)
		for i := range params {
			params[i] -= opts.Step * grad * delta[i]
		}
		c, err := evaluate(params)
		if err != nil {
			return nil, err
		}
		out.Evaluations++
		out.CostHistory = append(out.CostHistory, c)
		if c < out.BestCost {
			out.BestCost = c
			copy(out.BestParams, params)
		}
		if opts.OnIteration != nil {
			opts.OnIteration(iter, c)
		}
	}
	return out, nil
}
