package emulator

import (
	"math/rand"
	"sort"

	"hpcqc/internal/qir"
)

// NoiseModel captures the dominant error channels of neutral-atom readout as
// classical post-processing on sampled bitstrings: state-preparation errors
// (an atom missing from its trap reads as ground) and detection errors
// (false positives/negatives in the fluorescence image). This is the level
// of noise modelling the vendor emulators apply for end-to-end validation;
// coherent errors are instead driven through calibration drift in the device
// model.
type NoiseModel struct {
	// EpsPrep is the probability a prepared atom is lost before the
	// sequence, forcing its readout to ground.
	EpsPrep float64 `json:"eps_prep"`
	// EpsFalsePos is the probability a ground atom reads as excited.
	EpsFalsePos float64 `json:"eps_false_pos"`
	// EpsFalseNeg is the probability an excited atom reads as ground.
	EpsFalseNeg float64 `json:"eps_false_neg"`
}

// DefaultNoise returns values representative of published neutral-atom
// hardware characterization.
func DefaultNoise() NoiseModel {
	return NoiseModel{EpsPrep: 0.005, EpsFalsePos: 0.01, EpsFalseNeg: 0.03}
}

// Enabled reports whether any channel is active.
func (n NoiseModel) Enabled() bool {
	return n.EpsPrep > 0 || n.EpsFalsePos > 0 || n.EpsFalseNeg > 0
}

// Apply resamples counts through the readout channels. Shot totals are
// preserved; only bit values flip. Outcomes are visited in sorted order, not
// map order, so the draws each shot consumes — and with them the result — are
// a function of (counts, rng state) alone.
func (n NoiseModel) Apply(counts qir.Counts, rng *rand.Rand) qir.Counts {
	if !n.Enabled() {
		return counts
	}
	outcomes := make([]string, 0, len(counts))
	for bits := range counts {
		outcomes = append(outcomes, bits)
	}
	sort.Strings(outcomes)
	out := make(qir.Counts, len(counts))
	buf := make([]byte, 0, 64)
	for _, bits := range outcomes {
		for shot := 0; shot < counts[bits]; shot++ {
			buf = buf[:0]
			buf = append(buf, bits...)
			for i := range buf {
				switch buf[i] {
				case '1':
					if rng.Float64() < n.EpsPrep {
						buf[i] = '0'
						break
					}
					if rng.Float64() < n.EpsFalseNeg {
						buf[i] = '0'
					}
				case '0':
					if rng.Float64() < n.EpsFalsePos {
						buf[i] = '1'
					}
				}
			}
			out[string(buf)]++
		}
	}
	return out
}

// TotalVariationDistance returns ½·Σ|p(x) − q(x)| over the union of keys,
// the standard closeness metric between two measured distributions.
func TotalVariationDistance(a, b qir.Counts) float64 {
	ta, tb := a.TotalShots(), b.TotalShots()
	if ta == 0 || tb == 0 {
		if ta == tb {
			return 0
		}
		return 1
	}
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var d float64
	for k := range keys {
		pa := float64(a[k]) / float64(ta)
		pb := float64(b[k]) / float64(tb)
		if pa > pb {
			d += pa - pb
		} else {
			d += pb - pa
		}
	}
	return d / 2
}
