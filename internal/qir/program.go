package qir

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ProgramKind discriminates the two program families.
type ProgramKind string

const (
	// KindAnalog marks a pulse-level analog sequence.
	KindAnalog ProgramKind = "analog"
	// KindDigital marks a gate-model circuit.
	KindDigital ProgramKind = "digital"
)

// Program is the unit of submission through the whole stack: one analog
// sequence or one digital circuit plus a shot count. Every SDK lowers to a
// Program; every QRMI resource accepts a serialized Program.
type Program struct {
	Kind     ProgramKind
	Analog   *AnalogSequence
	Digital  *Circuit
	Shots    int
	Metadata map[string]string
}

// NewAnalogProgram wraps a sequence into a Program.
func NewAnalogProgram(seq *AnalogSequence, shots int) *Program {
	return &Program{Kind: KindAnalog, Analog: seq, Shots: shots, Metadata: make(map[string]string)}
}

// NewDigitalProgram wraps a circuit into a Program.
func NewDigitalProgram(c *Circuit, shots int) *Program {
	return &Program{Kind: KindDigital, Digital: c, Shots: shots, Metadata: make(map[string]string)}
}

// NumQubits returns the program width.
func (p *Program) NumQubits() int {
	switch p.Kind {
	case KindAnalog:
		if p.Analog != nil && p.Analog.Register != nil {
			return p.Analog.Register.NumQubits()
		}
	case KindDigital:
		if p.Digital != nil {
			return p.Digital.NumQubits
		}
	}
	return 0
}

// Validate checks the program body and shot count against the spec.
func (p *Program) Validate(spec *DeviceSpec) error {
	if p.Shots <= 0 {
		return errors.New("qir: program must request at least one shot")
	}
	if spec != nil && p.Shots > spec.MaxShotsPerTask {
		return fmt.Errorf("qir: %d shots exceeds device %s limit of %d per task", p.Shots, spec.Name, spec.MaxShotsPerTask)
	}
	switch p.Kind {
	case KindAnalog:
		if p.Analog == nil {
			return errors.New("qir: analog program has nil sequence")
		}
		return p.Analog.Validate(spec)
	case KindDigital:
		if p.Digital == nil {
			return errors.New("qir: digital program has nil circuit")
		}
		return p.Digital.Validate(spec)
	default:
		return fmt.Errorf("qir: unknown program kind %q", p.Kind)
	}
}

// EstimatedQPUSeconds returns the wall-clock time the program occupies the
// QPU given the spec's shot rate: shots / rate, plus per-shot sequence time.
// For emulators (rate 0) it returns 0; the emulator decides its own cost.
func (p *Program) EstimatedQPUSeconds(spec *DeviceSpec) float64 {
	if spec == nil || spec.ShotRateHz <= 0 {
		return 0
	}
	return float64(p.Shots) / spec.ShotRateHz
}

type serializedProgram struct {
	Kind     ProgramKind       `json:"kind"`
	Analog   json.RawMessage   `json:"analog,omitempty"`
	Digital  *Circuit          `json:"digital,omitempty"`
	Shots    int               `json:"shots"`
	Metadata map[string]string `json:"metadata,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p *Program) MarshalJSON() ([]byte, error) {
	out := serializedProgram{Kind: p.Kind, Digital: p.Digital, Shots: p.Shots, Metadata: p.Metadata}
	if p.Analog != nil {
		raw, err := json.Marshal(p.Analog)
		if err != nil {
			return nil, err
		}
		out.Analog = raw
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Program) UnmarshalJSON(data []byte) error {
	var in serializedProgram
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("qir: decoding program: %w", err)
	}
	p.Kind = in.Kind
	p.Digital = in.Digital
	p.Shots = in.Shots
	p.Metadata = in.Metadata
	if p.Metadata == nil {
		p.Metadata = make(map[string]string)
	}
	if len(in.Analog) > 0 {
		var seq AnalogSequence
		if err := json.Unmarshal(in.Analog, &seq); err != nil {
			return err
		}
		p.Analog = &seq
	}
	return nil
}

// Counts maps measured bitstrings (e.g. "0110", qubit 0 leftmost) to how
// often they were observed.
type Counts map[string]int

// TotalShots sums all observations.
func (c Counts) TotalShots() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Probability returns the empirical probability of a bitstring.
func (c Counts) Probability(bitstring string) float64 {
	total := c.TotalShots()
	if total == 0 {
		return 0
	}
	return float64(c[bitstring]) / float64(total)
}

// Result is what execution backends return: measured counts plus per-job
// metadata (device name, calibration snapshot, timing) that the paper's
// observability section argues users need to interpret noisy results. A
// result may share its maps with others (a timing-only device's do), so a
// holder writes only maps it made or decoded itself — as device.annotateResult
// (an emulator's fresh map) and core.Runtime.Execute (one decoded from bytes) do.
type Result struct {
	Counts   Counts            `json:"counts"`
	Metadata map[string]string `json:"metadata,omitempty"`
	// QPUSeconds is the quantum wall-clock consumed, 0 for emulators that
	// do not model shot-rate time.
	QPUSeconds float64 `json:"qpu_seconds"`
}
