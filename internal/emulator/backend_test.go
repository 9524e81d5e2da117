package emulator

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"hpcqc/internal/qir"
)

func bellProgram(shots int) *qir.Program {
	return qir.NewDigitalProgram(qir.NewCircuit(2).H(0).CX(0, 1), shots)
}

func blockadeProgram(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / (math.Sqrt(2) * omega) * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("pair", 2, 5))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

func TestSVBackendDigital(t *testing.T) {
	b := NewSVBackend(SVConfig{})
	res, err := b.Run(bellProgram(1000), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 1000 {
		t.Fatalf("total = %d", res.Counts.TotalShots())
	}
	if res.Counts["01"]+res.Counts["10"] != 0 {
		t.Fatalf("impossible outcomes: %v", res.Counts)
	}
	if res.Metadata["backend"] != "emu-sv" || res.Metadata["method"] != "statevector" {
		t.Fatalf("metadata: %v", res.Metadata)
	}
}

func TestSVBackendAnalogBlockade(t *testing.T) {
	b := NewSVBackend(SVConfig{DTNs: 0.5})
	res, err := b.Run(blockadeProgram(500), 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["11"] > 5 {
		t.Fatalf("blockade violated in sampling: %v", res.Counts)
	}
}

func TestSVBackendRejectsOversized(t *testing.T) {
	b := NewSVBackend(SVConfig{MaxQubits: 4})
	p := qir.NewDigitalProgram(qir.NewCircuit(8).H(0), 10)
	if _, err := b.Run(p, 1); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestSVBackendDeterministicSeed(t *testing.T) {
	b := NewSVBackend(SVConfig{})
	r1, err := b.Run(bellProgram(200), 99)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Run(bellProgram(200), 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Counts) != len(r2.Counts) {
		t.Fatal("seeded runs differ")
	}
	for k, v := range r1.Counts {
		if r2.Counts[k] != v {
			t.Fatalf("seeded runs differ at %s", k)
		}
	}
}

// TestBackendResultsReproducible: a result is a pure function of (program,
// seed, configuration) — counts and metadata alike — so two runs marshal to
// the same bytes. The backends used to stamp their wall-clock run time into
// the metadata (elapsed_ms), which made every full-fidelity result unique.
func TestBackendResultsReproducible(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend Backend
		prog    *qir.Program
	}{
		{"sv/digital", NewSVBackend(SVConfig{Noise: DefaultNoise()}), bellProgram(300)},
		{"sv/analog", NewSVBackend(SVConfig{DTNs: 0.5, Noise: DefaultNoise()}), blockadeProgram(300)},
		{"mps/digital", NewMPSBackend(MPSConfig{MaxBond: 4, Noise: DefaultNoise()}), bellProgram(300)},
		{"mps/analog", NewMPSBackend(MPSConfig{MaxBond: 4, DTNs: 0.5, Noise: DefaultNoise()}), blockadeProgram(300)},
	} {
		var runs [2][]byte
		for i := range runs {
			res, err := c.backend.Run(c.prog, 42)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if v, ok := res.Metadata["elapsed_ms"]; ok {
				t.Errorf("%s: metadata carries wall-clock elapsed_ms=%s", c.name, v)
			}
			if runs[i], err = json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("%s: same program and seed, different results:\n %s\n %s", c.name, runs[0], runs[1])
		}
	}
}

func TestMPSBackendDigitalMatchesSV(t *testing.T) {
	sv := NewSVBackend(SVConfig{})
	mps := NewMPSBackend(MPSConfig{MaxBond: 16})
	shots := 20000
	rsv, err := sv.Run(bellProgram(shots), 1)
	if err != nil {
		t.Fatal(err)
	}
	rmps, err := mps.Run(bellProgram(shots), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tvd := TotalVariationDistance(rsv.Counts, rmps.Counts); tvd > 0.03 {
		t.Fatalf("TVD = %g", tvd)
	}
}

func TestMPSBackendChi1Mock(t *testing.T) {
	// The product-state mock accepts registers far beyond exact emulation.
	b := NewMPSBackend(MPSConfig{MaxBond: 1, MaxQubits: 100})
	seq := qir.NewAnalogSequence(qir.LinearRegister("big", 80, 6))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.BlackmanWaveform{Dur: 300, Peak: math.Pi},
		Detuning:  qir.ConstantWaveform{Dur: 300, Val: 0},
	})
	res, err := b.Run(qir.NewAnalogProgram(seq, 25), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 25 {
		t.Fatalf("total = %d", res.Counts.TotalShots())
	}
	if res.Metadata["bond_dimension"] != "1" {
		t.Fatalf("metadata: %v", res.Metadata)
	}
}

func TestMPSBackendReportsTruncation(t *testing.T) {
	b := NewMPSBackend(MPSConfig{MaxBond: 1})
	res, err := b.Run(bellProgram(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metadata["truncation_error"] == "0" {
		t.Fatalf("χ=1 Bell reported zero truncation: %v", res.Metadata)
	}
}

func TestBackendSpecNames(t *testing.T) {
	if NewSVBackend(SVConfig{}).Name() != "emu-sv" {
		t.Fatal("sv name")
	}
	if NewMPSBackend(MPSConfig{MaxBond: 8}).Name() != "emu-mps-chi8" {
		t.Fatal("mps name")
	}
}

func TestNoiseModelApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	counts := qir.Counts{"0000000000": 5000}
	n := NoiseModel{EpsFalsePos: 0.1}
	noisy := n.Apply(counts, rng)
	if noisy.TotalShots() != 5000 {
		t.Fatalf("total changed: %d", noisy.TotalShots())
	}
	// Expect ~10% of bits flipped to 1: all-zero strings become rare-ish.
	if noisy["0000000000"] >= 5000 {
		t.Fatal("noise had no effect")
	}
	ones := 0
	for bits, c := range noisy {
		for i := range bits {
			if bits[i] == '1' {
				ones += c
			}
		}
	}
	rate := float64(ones) / (5000 * 10)
	if math.Abs(rate-0.1) > 0.02 {
		t.Fatalf("false-positive rate = %g, want ~0.1", rate)
	}
}

func TestNoiseModelDisabledPassthrough(t *testing.T) {
	counts := qir.Counts{"01": 3}
	var n NoiseModel
	if n.Enabled() {
		t.Fatal("zero model enabled")
	}
	got := n.Apply(counts, rand.New(rand.NewSource(1)))
	if got["01"] != 3 {
		t.Fatalf("passthrough changed counts: %v", got)
	}
}

func TestNoiseFalseNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	counts := qir.Counts{"1111111111": 3000}
	n := NoiseModel{EpsFalseNeg: 0.2}
	noisy := n.Apply(counts, rng)
	zeros := 0
	for bits, c := range noisy {
		for i := range bits {
			if bits[i] == '0' {
				zeros += c
			}
		}
	}
	rate := float64(zeros) / (3000 * 10)
	if math.Abs(rate-0.2) > 0.03 {
		t.Fatalf("false-negative rate = %g, want ~0.2", rate)
	}
}

func TestTotalVariationDistance(t *testing.T) {
	a := qir.Counts{"0": 50, "1": 50}
	b := qir.Counts{"0": 50, "1": 50}
	if d := TotalVariationDistance(a, b); d != 0 {
		t.Fatalf("identical TVD = %g", d)
	}
	c := qir.Counts{"0": 100}
	if d := TotalVariationDistance(a, c); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("TVD = %g, want 0.5", d)
	}
	disjoint := qir.Counts{"2": 10}
	if d := TotalVariationDistance(c, disjoint); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint TVD = %g, want 1", d)
	}
	if d := TotalVariationDistance(qir.Counts{}, qir.Counts{}); d != 0 {
		t.Fatalf("empty TVD = %g", d)
	}
	if d := TotalVariationDistance(qir.Counts{}, c); d != 1 {
		t.Fatalf("empty-vs-nonempty TVD = %g", d)
	}
}

func TestDefaultNoiseEnabled(t *testing.T) {
	if !DefaultNoise().Enabled() {
		t.Fatal("default noise disabled")
	}
}
