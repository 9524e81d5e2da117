package emulator

import (
	"math"
	"testing"

	"hpcqc/internal/qir"
)

func TestMeanZ(t *testing.T) {
	counts := qir.Counts{"00": 50, "10": 50}
	z0, err := MeanZ(counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if z0 != 0 {
		t.Fatalf("Z0 = %g", z0)
	}
	z1, _ := MeanZ(counts, 1)
	if z1 != 1 {
		t.Fatalf("Z1 = %g", z1)
	}
	if _, err := MeanZ(counts, 5); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
	if _, err := MeanZ(qir.Counts{}, 0); err == nil {
		t.Fatal("empty counts accepted")
	}
}

func TestRydbergDensity(t *testing.T) {
	counts := qir.Counts{"10": 50, "11": 50}
	d, err := RydbergDensity(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.75) > 1e-12 {
		t.Fatalf("density = %g", d)
	}
	if _, err := RydbergDensity(qir.Counts{}); err == nil {
		t.Fatal("empty counts accepted")
	}
}

func TestStaggeredMagnetizationExtremes(t *testing.T) {
	neel := qir.Counts{"10101": 100}
	m, err := StaggeredMagnetization(neel)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-1) > 1e-12 {
		t.Fatalf("Néel m = %g", m)
	}
	uniform := qir.Counts{"11111": 100}
	m, _ = StaggeredMagnetization(uniform)
	if math.Abs(m-0.2) > 1e-12 { // |Σ(−1)^i(−1)| = 1 of 5
		t.Fatalf("uniform m = %g", m)
	}
}

func TestObservablesOnRealBellState(t *testing.T) {
	b := NewSVBackend(SVConfig{})
	res, err := b.Run(qir.NewDigitalProgram(qir.NewCircuit(2).H(0).CX(0, 1), 10000), 3)
	if err != nil {
		t.Fatal(err)
	}
	if aligned := res.Counts.Probability("00") + res.Counts.Probability("11"); aligned < 0.975 {
		t.Fatalf("Bell P(00)+P(11) = %g", aligned)
	}
	z, _ := MeanZ(res.Counts, 0)
	if math.Abs(z) > 0.05 {
		t.Fatalf("Bell single-qubit Z = %g", z)
	}
}
