package qir

import (
	"errors"
	"fmt"
)

// GateName identifies a digital gate.
type GateName string

// Supported digital gates. The set matches common hardware-native bases plus
// the standard teaching set, enough to express the paper's roadmap regime.
const (
	GateH  GateName = "h"
	GateX  GateName = "x"
	GateY  GateName = "y"
	GateZ  GateName = "z"
	GateS  GateName = "s"
	GateT  GateName = "t"
	GateRX GateName = "rx"
	GateRY GateName = "ry"
	GateRZ GateName = "rz"
	GateCZ GateName = "cz"
	GateCX GateName = "cx"
)

// Gate is one operation in a digital circuit. Single-qubit gates use only
// Qubits[0]; two-qubit gates use Qubits[0] as control and Qubits[1] as
// target. Param carries the rotation angle for rx/ry/rz.
type Gate struct {
	Name   GateName `json:"name"`
	Qubits []int    `json:"qubits"`
	Param  float64  `json:"param,omitempty"`
}

// Arity returns how many qubit operands the gate takes, or 0 if unknown.
func (g GateName) Arity() int {
	switch g {
	case GateH, GateX, GateY, GateZ, GateS, GateT, GateRX, GateRY, GateRZ:
		return 1
	case GateCZ, GateCX:
		return 2
	default:
		return 0
	}
}

// Circuit is a gate-model program on NumQubits qubits. All qubits are
// measured in the computational basis at the end.
type Circuit struct {
	NumQubits int               `json:"num_qubits"`
	Gates     []Gate            `json:"gates"`
	Metadata  map[string]string `json:"metadata,omitempty"`
}

// NewCircuit returns an empty circuit.
func NewCircuit(n int) *Circuit {
	return &Circuit{NumQubits: n, Metadata: make(map[string]string)}
}

// Append adds a gate; it returns the circuit for chaining.
func (c *Circuit) Append(name GateName, param float64, qubits ...int) *Circuit {
	c.Gates = append(c.Gates, Gate{Name: name, Qubits: qubits, Param: param})
	return c
}

// H, X, RZ etc. are convenience builders for the common gates.
func (c *Circuit) H(q int) *Circuit              { return c.Append(GateH, 0, q) }
func (c *Circuit) X(q int) *Circuit              { return c.Append(GateX, 0, q) }
func (c *Circuit) Y(q int) *Circuit              { return c.Append(GateY, 0, q) }
func (c *Circuit) Z(q int) *Circuit              { return c.Append(GateZ, 0, q) }
func (c *Circuit) S(q int) *Circuit              { return c.Append(GateS, 0, q) }
func (c *Circuit) T(q int) *Circuit              { return c.Append(GateT, 0, q) }
func (c *Circuit) RX(q int, th float64) *Circuit { return c.Append(GateRX, th, q) }
func (c *Circuit) RY(q int, th float64) *Circuit { return c.Append(GateRY, th, q) }
func (c *Circuit) RZ(q int, th float64) *Circuit { return c.Append(GateRZ, th, q) }
func (c *Circuit) CZ(ctrl, tgt int) *Circuit     { return c.Append(GateCZ, 0, ctrl, tgt) }
func (c *Circuit) CX(ctrl, tgt int) *Circuit     { return c.Append(GateCX, 0, ctrl, tgt) }

// Depth returns the circuit depth under the standard greedy layering.
func (c *Circuit) Depth() int {
	if len(c.Gates) == 0 {
		return 0
	}
	level := make([]int, c.NumQubits)
	depth := 0
	for _, g := range c.Gates {
		max := 0
		for _, q := range g.Qubits {
			if q >= 0 && q < c.NumQubits && level[q] > max {
				max = level[q]
			}
		}
		for _, q := range g.Qubits {
			if q >= 0 && q < c.NumQubits {
				level[q] = max + 1
			}
		}
		if max+1 > depth {
			depth = max + 1
		}
	}
	return depth
}

// TwoQubitCount returns the number of two-qubit gates, the usual proxy for
// circuit cost on hardware.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Name.Arity() == 2 {
			n++
		}
	}
	return n
}

// Validate checks gate arities, qubit ranges and, when spec is non-nil, that
// the target accepts digital circuits and every gate is native to it.
func (c *Circuit) Validate(spec *DeviceSpec) error {
	if c.NumQubits <= 0 {
		return errors.New("qir: circuit must have at least one qubit")
	}
	for i, g := range c.Gates {
		ar := g.Name.Arity()
		if ar == 0 {
			return fmt.Errorf("qir: gate %d: unknown gate %q", i, g.Name)
		}
		if len(g.Qubits) != ar {
			return fmt.Errorf("qir: gate %d (%s): got %d operands, want %d", i, g.Name, len(g.Qubits), ar)
		}
		seen := make(map[int]bool, ar)
		for _, q := range g.Qubits {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("qir: gate %d (%s): qubit %d out of range [0,%d)", i, g.Name, q, c.NumQubits)
			}
			if seen[q] {
				return fmt.Errorf("qir: gate %d (%s): duplicate qubit operand %d", i, g.Name, q)
			}
			seen[q] = true
		}
	}
	if spec == nil {
		return nil
	}
	if !spec.Digital {
		return fmt.Errorf("qir: device %s is analog-only and cannot run gate circuits", spec.Name)
	}
	if c.NumQubits > spec.MaxQubits {
		return fmt.Errorf("qir: circuit of %d qubits exceeds device %s limit of %d", c.NumQubits, spec.Name, spec.MaxQubits)
	}
	if len(spec.NativeGates) > 0 {
		native := make(map[string]bool, len(spec.NativeGates))
		for _, g := range spec.NativeGates {
			native[g] = true
		}
		for i, g := range c.Gates {
			if !native[string(g.Name)] {
				return fmt.Errorf("qir: gate %d (%s) not native to device %s", i, g.Name, spec.Name)
			}
		}
	}
	return nil
}
