package qir

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearRegister(t *testing.T) {
	r := LinearRegister("line", 5, 6)
	if got := r.NumQubits(); got != 5 {
		t.Fatalf("NumQubits = %d, want 5", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := r.MinSpacing(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("MinSpacing = %g, want 6", got)
	}
}

func TestRegisterValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		reg  Register
	}{
		{"empty name", Register{Atoms: []Position{{}}}},
		{"no atoms", Register{Name: "r"}},
		{"duplicate atoms", Register{Name: "r", Atoms: []Position{{1, 1}, {1, 1}}}},
		{"nan coordinate", Register{Name: "r", Atoms: []Position{{math.NaN(), 0}}}},
		{"inf coordinate", Register{Name: "r", Atoms: []Position{{0, math.Inf(1)}}}},
	}
	for _, c := range cases {
		if err := c.reg.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", c.name)
		}
	}
}

func TestMinSpacingDegenerate(t *testing.T) {
	r := Register{Name: "r", Atoms: []Position{{0, 0}}}
	if got := r.MinSpacing(); got != 0 {
		t.Fatalf("MinSpacing single atom = %g, want 0", got)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Clamp to a sane range to avoid overflow artefacts.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Position{clamp(ax), clamp(ay)}
		b := Position{clamp(bx), clamp(by)}
		return math.Abs(a.Distance(b)-b.Distance(a)) < 1e-9 && a.Distance(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Position{float64(ax), float64(ay)}
		b := Position{float64(bx), float64(by)}
		c := Position{float64(cx), float64(cy)}
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
