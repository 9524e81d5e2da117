package emulator

import (
	"fmt"
	"math"

	"hpcqc/internal/qir"
)

// FrobeniusNorm returns sqrt(Σ|a_ij|²).
func (m *Matrix) FrobeniusNorm() float64 {
	var sum float64
	for _, v := range m.Data {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(sum)
}

// MeanZ returns ⟨Z_q⟩ estimated from counts, with Z|0⟩=+|0⟩, Z|1⟩=−|1⟩.
func MeanZ(counts qir.Counts, q int) (float64, error) {
	total := counts.TotalShots()
	if total == 0 {
		return 0, fmt.Errorf("emulator: no shots")
	}
	acc := 0
	for bits, n := range counts {
		if q < 0 || q >= len(bits) {
			return 0, fmt.Errorf("emulator: qubit %d outside %d-bit outcomes", q, len(bits))
		}
		if bits[q] == '0' {
			acc += n
		} else {
			acc -= n
		}
	}
	return float64(acc) / float64(total), nil
}
