// Package qir defines the quantum intermediate representation shared by every
// SDK frontend and every execution backend in the stack.
//
// The IR has two program families, mirroring the device families discussed in
// the paper: analog sequences (neutral-atom pulse programs, the production
// regime of the Pasqal QPU) and digital circuits (the roadmap regime). Both
// lower from SDK frontends and both validate against a DeviceSpec so that a
// program accepted during development is still valid at the point of
// execution, where calibration state may have drifted.
package qir

import (
	"errors"
	"fmt"
	"math"
)

// Position is a 2D atom coordinate in micrometres. Neutral-atom registers are
// planar arrays of optical tweezers; 2D coordinates are sufficient for every
// production layout.
type Position struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Distance returns the Euclidean distance in micrometres between p and q.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Register is a named set of trap positions holding one atom each. The order
// of Atoms defines qubit indices used by sequences and result bitstrings.
type Register struct {
	Name  string     `json:"name"`
	Atoms []Position `json:"atoms"`
}

// NumQubits returns the number of atoms in the register.
func (r *Register) NumQubits() int { return len(r.Atoms) }

// MinSpacing returns the smallest pairwise distance in the register, or 0 for
// registers with fewer than two atoms.
func (r *Register) MinSpacing() float64 {
	if len(r.Atoms) < 2 {
		return 0
	}
	min := math.Inf(1)
	for i := 0; i < len(r.Atoms); i++ {
		for j := i + 1; j < len(r.Atoms); j++ {
			if d := r.Atoms[i].Distance(r.Atoms[j]); d < min {
				min = d
			}
		}
	}
	return min
}

// Validate checks structural invariants: a non-empty name, at least one atom,
// finite coordinates and no two atoms at identical positions.
func (r *Register) Validate() error {
	if r.Name == "" {
		return errors.New("qir: register name must not be empty")
	}
	if len(r.Atoms) == 0 {
		return errors.New("qir: register must contain at least one atom")
	}
	for i, a := range r.Atoms {
		if math.IsNaN(a.X) || math.IsInf(a.X, 0) || math.IsNaN(a.Y) || math.IsInf(a.Y, 0) {
			return fmt.Errorf("qir: atom %d has non-finite coordinates", i)
		}
	}
	for i := 0; i < len(r.Atoms); i++ {
		for j := i + 1; j < len(r.Atoms); j++ {
			if r.Atoms[i].Distance(r.Atoms[j]) == 0 {
				return fmt.Errorf("qir: atoms %d and %d occupy the same position", i, j)
			}
		}
	}
	return nil
}

// LinearRegister returns n atoms on a line with the given spacing (µm).
func LinearRegister(name string, n int, spacing float64) *Register {
	atoms := make([]Position, n)
	for i := range atoms {
		atoms[i] = Position{X: float64(i) * spacing}
	}
	return &Register{Name: name, Atoms: atoms}
}
