package emulator

import (
	"fmt"
	"math"

	"hpcqc/internal/qir"
)

// Observables computed from measured counts. These are the classical
// post-processing primitives hybrid workflows run between quantum calls:
// Rydberg densities and the Néel order parameter. They operate on qir.Counts
// so they work identically on every backend's output — emulator or QPU.

// RydbergDensity returns the mean excitation fraction ⟨n⟩ = (1 − ⟨Z⟩)/2
// averaged over all qubits.
func RydbergDensity(counts qir.Counts) (float64, error) {
	total := counts.TotalShots()
	if total == 0 {
		return 0, fmt.Errorf("emulator: no shots")
	}
	var excited, bitsN int
	for bits, n := range counts {
		bitsN = len(bits)
		for i := 0; i < len(bits); i++ {
			if bits[i] == '1' {
				excited += n
			}
		}
	}
	if bitsN == 0 {
		return 0, fmt.Errorf("emulator: empty outcomes")
	}
	return float64(excited) / float64(total*bitsN), nil
}

// StaggeredMagnetization returns ⟨|Σ_i (−1)^i Z_i|⟩ / N, the Z2 (Néel) order
// parameter used to detect the antiferromagnetic phase in Rydberg chains.
func StaggeredMagnetization(counts qir.Counts) (float64, error) {
	total := counts.TotalShots()
	if total == 0 {
		return 0, fmt.Errorf("emulator: no shots")
	}
	var acc float64
	for bits, n := range counts {
		m := 0
		for i := 0; i < len(bits); i++ {
			z := 1
			if bits[i] == '1' {
				z = -1
			}
			if i%2 == 1 {
				z = -z
			}
			m += z
		}
		acc += math.Abs(float64(m)) / float64(len(bits)) * float64(n)
	}
	return acc / float64(total), nil
}
