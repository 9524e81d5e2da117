// Package workload generates the hybrid quantum-classical workloads behind
// the paper's evaluation: the three Table 1 patterns (QC-heavy, CC-heavy,
// balanced) as schedulable hybrid jobs, and an SQD-style sampling +
// heavy-classical-post-processing pipeline modelled on the workload the
// paper cites as the motivating CC-heavy case (Robledo-Moreno et al. [17],
// where post-processing parallelized to 6400 nodes).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
)

// PatternSpec parameterizes a job generator for one Table 1 pattern.
type PatternSpec struct {
	Pattern sched.Pattern
	// QuantumSegments is how many QPU phases the job has.
	QuantumSegments int
	// QuantumSeg and ClassicalSeg are per-segment durations.
	QuantumSeg   time.Duration
	ClassicalSeg time.Duration
}

// DefaultPatternSpecs returns representative footprints for the three rows
// of Table 1, at the 1 Hz shot-rate timescale of current hardware:
//
//	A (QC-heavy):  one long QPU block, a short classical tail.
//	B (CC-heavy):  short QPU bursts between long classical phases.
//	C (balanced):  alternating comparable phases.
func DefaultPatternSpecs() map[sched.Pattern]PatternSpec {
	return map[sched.Pattern]PatternSpec{
		sched.PatternQCHeavy: {
			Pattern:         sched.PatternQCHeavy,
			QuantumSegments: 1,
			QuantumSeg:      300 * time.Second,
			ClassicalSeg:    15 * time.Second,
		},
		sched.PatternCCHeavy: {
			Pattern:         sched.PatternCCHeavy,
			QuantumSegments: 3,
			QuantumSeg:      20 * time.Second,
			ClassicalSeg:    240 * time.Second,
		},
		sched.PatternBalanced: {
			Pattern:         sched.PatternBalanced,
			QuantumSegments: 4,
			QuantumSeg:      60 * time.Second,
			ClassicalSeg:    60 * time.Second,
		},
	}
}

// TotalQuantum returns the pattern's summed nominal QPU time — the quantum
// footprint arrival-process generators scale into per-job service demands.
func (s PatternSpec) TotalQuantum() time.Duration {
	return time.Duration(s.QuantumSegments) * s.QuantumSeg
}

// TotalClassical returns the pattern's summed nominal classical time.
func (s PatternSpec) TotalClassical() time.Duration {
	return time.Duration(s.QuantumSegments) * s.ClassicalSeg
}

// DeadlineSpec is a per-class completion contract: a job of the class is
// expected to finish within Base plus ServiceFactor times its own expected
// QPU service, measured from submission. The service-coupled term keeps the
// contract meaningful across the 10x service-time spread of the Table 1
// patterns — a flat allowance either starves long QC-heavy jobs or is
// vacuous for short CC-heavy bursts.
type DeadlineSpec struct {
	// Base is the flat completion allowance from submission.
	Base time.Duration
	// ServiceFactor scales the job's expected QPU service into additional
	// allowance on top of Base.
	ServiceFactor float64
}

// Offset resolves the spec into a relative deadline (time from submission)
// for a job with the given expected service. A zero spec yields 0, meaning
// "no deadline".
func (s DeadlineSpec) Offset(service time.Duration) time.Duration {
	if s.Base <= 0 && s.ServiceFactor <= 0 {
		return 0
	}
	d := s.Base + time.Duration(s.ServiceFactor*float64(service))
	if d < 0 {
		return 0
	}
	return d
}

// DefaultDeadlines returns the per-class completion contracts the deadline
// scheduling axis assumes when a job carries no explicit deadline of its
// own: production work is interactive-adjacent (minutes), test runs tolerate
// tens of minutes, dev batches are best-effort with a wide but finite bound.
func DefaultDeadlines() map[sched.Class]DeadlineSpec {
	return map[sched.Class]DeadlineSpec{
		sched.ClassProduction: {Base: 2 * time.Minute, ServiceFactor: 2},
		sched.ClassTest:       {Base: 10 * time.Minute, ServiceFactor: 4},
		sched.ClassDev:        {Base: 30 * time.Minute, ServiceFactor: 8},
	}
}

// Mix describes a batch composition.
type Mix struct {
	QCHeavy  int
	CCHeavy  int
	Balanced int
}

// Total returns the batch size.
func (m Mix) Total() int { return m.QCHeavy + m.CCHeavy + m.Balanced }

// Sample draws one pattern with probability proportional to the mix counts —
// the composition hook arrival-process generators use to stamp a Table 1
// pattern onto each synthetic arrival without building a whole batch.
func (m Mix) Sample(rng *rand.Rand) (sched.Pattern, error) {
	total := m.Total()
	if total <= 0 {
		return "", errors.New("workload: empty mix")
	}
	n := rng.Intn(total)
	switch {
	case n < m.QCHeavy:
		return sched.PatternQCHeavy, nil
	case n < m.QCHeavy+m.CCHeavy:
		return sched.PatternCCHeavy, nil
	default:
		return sched.PatternBalanced, nil
	}
}

// --- SQD-style sampling + classical diagonalization model ---

// SQDConfig parameterizes the sample-based quantum diagonalization pipeline.
type SQDConfig struct {
	// Qubits is the register width sampled from the QPU.
	Qubits int
	// Shots per quantum batch.
	Shots int
	// SubspaceCap bounds the configuration subspace kept per iteration.
	SubspaceCap int
	// Iterations of the sample → post-process loop.
	Iterations int
	// Seed drives reproducibility.
	Seed int64
}

// SQDResult reports the pipeline outcome.
type SQDResult struct {
	// Energy is the final variational energy estimate of the model
	// Hamiltonian (a 1D transverse-field Ising surrogate).
	Energy float64
	// SubspaceSizes is the configuration count kept per iteration.
	SubspaceSizes []int
	// ClassicalOps counts the diagonalization work performed — the
	// resource-intensive part the paper says parallelizes across nodes.
	ClassicalOps int64
}

// SQDPipeline runs the CC-heavy reference workload: draw bitstring samples
// from a quantum program (supplied by the caller as a sampling function),
// collect the distinct configurations into a subspace, and classically
// diagonalize the model Hamiltonian projected into that subspace. The
// quantum part is seconds of QPU time; the classical part scales as
// O(subspace² · qubits), reproducing the pattern-B shape of Table 1.
func SQDPipeline(cfg SQDConfig, sample func(shots int) (qir.Counts, error)) (*SQDResult, error) {
	if cfg.Qubits < 2 {
		return nil, errors.New("workload: SQD needs at least 2 qubits")
	}
	if cfg.Shots <= 0 || cfg.Iterations <= 0 {
		return nil, errors.New("workload: SQD needs positive shots and iterations")
	}
	if cfg.SubspaceCap <= 0 {
		cfg.SubspaceCap = 256
	}
	if sample == nil {
		return nil, errors.New("workload: SQD needs a sampling function")
	}
	res := &SQDResult{}
	seen := make(map[string]int)
	for iter := 0; iter < cfg.Iterations; iter++ {
		counts, err := sample(cfg.Shots)
		if err != nil {
			return nil, fmt.Errorf("workload: SQD sampling: %w", err)
		}
		for bits, n := range counts {
			if len(bits) != cfg.Qubits {
				return nil, fmt.Errorf("workload: sample width %d != %d qubits", len(bits), cfg.Qubits)
			}
			seen[bits] += n
		}
		subspace := topConfigurations(seen, cfg.SubspaceCap)
		res.SubspaceSizes = append(res.SubspaceSizes, len(subspace))
		energy, ops := diagonalizeSubspace(subspace, cfg.Qubits)
		res.Energy = energy
		res.ClassicalOps += ops
	}
	return res, nil
}

// topConfigurations keeps the most frequent configurations up to cap.
func topConfigurations(seen map[string]int, cap int) []string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if seen[keys[a]] != seen[keys[b]] {
			return seen[keys[a]] > seen[keys[b]]
		}
		return keys[a] < keys[b]
	})
	if len(keys) > cap {
		keys = keys[:cap]
	}
	return keys
}

// diagonalizeSubspace projects a 1D transverse-field Ising Hamiltonian
//
//	H = -J Σ z_i z_{i+1} − h Σ σx_i  (J = h = 1)
//
// into the sampled configuration subspace and finds its ground energy by
// power iteration on (shift·I − H). It returns the energy and the number of
// scalar multiply-adds performed (the classical-load proxy).
func diagonalizeSubspace(subspace []string, n int) (float64, int64) {
	m := len(subspace)
	if m == 0 {
		return 0, 0
	}
	index := make(map[string]int, m)
	for i, s := range subspace {
		index[s] = i
	}
	// Dense projected Hamiltonian.
	h := make([]float64, m*m)
	for i, bits := range subspace {
		// Diagonal: -J Σ z_i z_{i+1} with z = ±1.
		diag := 0.0
		for q := 0; q < n-1; q++ {
			zi, zj := 1.0, 1.0
			if bits[q] == '1' {
				zi = -1
			}
			if bits[q+1] == '1' {
				zj = -1
			}
			diag -= zi * zj
		}
		h[i*m+i] = diag
		// Off-diagonal: -h σx flips one bit; only flips landing inside
		// the subspace contribute (the SQD projection).
		b := []byte(bits)
		for q := 0; q < n; q++ {
			orig := b[q]
			if orig == '0' {
				b[q] = '1'
			} else {
				b[q] = '0'
			}
			if j, ok := index[string(b)]; ok {
				h[i*m+j] -= 1
			}
			b[q] = orig
		}
	}
	// Power iteration on (shift·I − H) converges to H's ground state.
	shift := float64(2 * n)
	v := make([]float64, m)
	w := make([]float64, m)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(m))
	}
	var ops int64
	energy := 0.0
	for it := 0; it < 200; it++ {
		for i := 0; i < m; i++ {
			acc := 0.0
			row := h[i*m : (i+1)*m]
			for j, hij := range row {
				if hij != 0 {
					acc += hij * v[j]
				}
			}
			w[i] = shift*v[i] - acc
		}
		ops += int64(m) * int64(m)
		norm := 0.0
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for i := range w {
			v[i] = w[i] / norm
		}
		// Rayleigh quotient for H.
		num := 0.0
		for i := 0; i < m; i++ {
			acc := 0.0
			row := h[i*m : (i+1)*m]
			for j, hij := range row {
				if hij != 0 {
					acc += hij * v[j]
				}
			}
			num += v[i] * acc
		}
		ops += int64(m) * int64(m)
		if it > 0 && math.Abs(num-energy) < 1e-10 {
			energy = num
			break
		}
		energy = num
	}
	return energy, ops
}

// UniformSampler returns a sampling function drawing uniform bitstrings —
// the degenerate baseline for SQD comparisons.
func UniformSampler(qubits int, seed int64) func(int) (qir.Counts, error) {
	rng := rand.New(rand.NewSource(seed))
	return func(shots int) (qir.Counts, error) {
		c := make(qir.Counts)
		b := make([]byte, qubits)
		for s := 0; s < shots; s++ {
			for i := range b {
				b[i] = '0' + byte(rng.Intn(2))
			}
			c[string(b)]++
		}
		return c, nil
	}
}

// GroundBiasedSampler draws bitstrings biased toward low Ising energies,
// standing in for a trained quantum circuit's output distribution.
func GroundBiasedSampler(qubits int, beta float64, seed int64) func(int) (qir.Counts, error) {
	rng := rand.New(rand.NewSource(seed))
	return func(shots int) (qir.Counts, error) {
		c := make(qir.Counts)
		b := make([]byte, qubits)
		for s := 0; s < shots; s++ {
			// Gibbs-like sampling: start random, sweep with heat-bath.
			for i := range b {
				b[i] = '0' + byte(rng.Intn(2))
			}
			for sweep := 0; sweep < 3; sweep++ {
				for i := range b {
					// Energy difference of flipping bit i under -J z z.
					dE := 0.0
					zi := 1.0
					if b[i] == '1' {
						zi = -1
					}
					if i > 0 {
						zj := 1.0
						if b[i-1] == '1' {
							zj = -1
						}
						dE += 2 * zi * zj
					}
					if i < len(b)-1 {
						zj := 1.0
						if b[i+1] == '1' {
							zj = -1
						}
						dE += 2 * zi * zj
					}
					if dE < 0 || rng.Float64() < math.Exp(-beta*dE) {
						if b[i] == '0' {
							b[i] = '1'
						} else {
							b[i] = '0'
						}
					}
				}
			}
			c[string(b)]++
		}
		return c, nil
	}
}
