package qir

import (
	"errors"
	"fmt"
	"slices"
)

// DeviceSpec describes the static capabilities of an execution target. It is
// what the runtime fetches at each stage of the development workflow (paper
// Figure 1: "device characteristics needed for program development") and what
// sequences validate against before submission.
type DeviceSpec struct {
	Name string `json:"name"`
	// MaxQubits is the largest register the target accepts.
	MaxQubits int `json:"max_qubits"`
	// MinAtomSpacing in µm; traps closer than this cannot be loaded.
	MinAtomSpacing float64 `json:"min_atom_spacing"`
	// MaxRabi is the peak Rabi frequency in rad/µs of the global channel.
	MaxRabi float64 `json:"max_rabi"`
	// MaxDetuning is the maximum |detuning| in rad/µs.
	MaxDetuning float64 `json:"max_detuning"`
	// MaxSequenceDuration in ns; bounded by atom lifetime in the traps.
	MaxSequenceDuration float64 `json:"max_sequence_duration"`
	// MaxSlope is the maximum waveform slew rate in rad/µs per ns
	// (modulation bandwidth). Zero means unconstrained.
	MaxSlope float64 `json:"max_slope,omitempty"`
	// C6 is the Rydberg van der Waals coefficient in rad/µs · µm^6.
	C6 float64 `json:"c6"`
	// SupportsLocalDetuning reports whether per-atom detuning channels exist.
	SupportsLocalDetuning bool `json:"supports_local_detuning"`
	// Digital reports whether the target accepts gate-model circuits
	// (roadmap devices; the production analog device does not).
	Digital bool `json:"digital"`
	// NativeGates lists gate names accepted when Digital is true.
	NativeGates []string `json:"native_gates,omitempty"`
	// ShotRateHz is the nominal repetition rate. Current neutral-atom
	// hardware runs near 1 Hz (paper §2.2.1); roadmaps project ~100 Hz.
	ShotRateHz float64 `json:"shot_rate_hz"`
	// MaxShotsPerTask bounds a single submission.
	MaxShotsPerTask int `json:"max_shots_per_task"`
}

// Equal reports whether s and o have the same contents. Two specs it calls
// equal are indistinguishable to Validate — including the error strings,
// which embed the spec name — so a verdict on one is exact for the other:
// the validation memo and the daemon's capability rule both rest on that.
// New DeviceSpec fields must be compared here.
func (s *DeviceSpec) Equal(o *DeviceSpec) bool {
	return s.Name == o.Name && s.MaxQubits == o.MaxQubits && s.MinAtomSpacing == o.MinAtomSpacing &&
		s.MaxRabi == o.MaxRabi && s.MaxDetuning == o.MaxDetuning && s.MaxSequenceDuration == o.MaxSequenceDuration &&
		s.MaxSlope == o.MaxSlope && s.C6 == o.C6 && s.SupportsLocalDetuning == o.SupportsLocalDetuning &&
		s.Digital == o.Digital && s.ShotRateHz == o.ShotRateHz && s.MaxShotsPerTask == o.MaxShotsPerTask &&
		slices.Equal(s.NativeGates, o.NativeGates)
}

// DefaultAnalogSpec returns a spec modelled after a production analog
// neutral-atom QPU (Fresnel-class, ~100 qubits, 1 Hz shot rate).
func DefaultAnalogSpec() DeviceSpec {
	return DeviceSpec{
		Name:                "analog-qpu",
		MaxQubits:           100,
		MinAtomSpacing:      4.0,
		MaxRabi:             12.57, // ≈ 2π·2 MHz in rad/µs
		MaxDetuning:         125.7, // ≈ 2π·20 MHz
		MaxSequenceDuration: 6000,  // 6 µs
		MaxSlope:            0.5,
		C6:                  5420158.53, // Rb 60S1/2 in rad/µs·µm^6
		ShotRateHz:          1,
		MaxShotsPerTask:     2000,
	}
}

// DefaultEmulatorSpec returns a permissive spec for software emulators. The
// qubit bound reflects the backend: exact state-vector emulators cap out
// around 12-14 qubits; tensor-network emulators go much higher.
func DefaultEmulatorSpec(name string, maxQubits int) DeviceSpec {
	s := DefaultAnalogSpec()
	s.Name = name
	s.MaxQubits = maxQubits
	s.MaxSequenceDuration = 20000
	s.ShotRateHz = 0 // emulators are not shot-rate limited
	s.MaxShotsPerTask = 100000
	s.SupportsLocalDetuning = true
	s.Digital = true
	s.NativeGates = []string{"h", "x", "y", "z", "rx", "ry", "rz", "cz", "cx"}
	return s
}

// DefaultDigitalSpec returns a spec for a roadmap digital neutral-atom
// device: gate-model programs on a modest qubit count, still shot-rate
// limited. The paper's production device is analog-only; this spec models
// the "extended to digital devices once these become generally available"
// path its discussion describes.
func DefaultDigitalSpec() DeviceSpec {
	s := DefaultAnalogSpec()
	s.Name = "digital-qpu"
	s.MaxQubits = 40
	s.Digital = true
	s.NativeGates = []string{"h", "x", "y", "z", "rx", "ry", "rz", "cz", "cx"}
	s.ShotRateHz = 2
	return s
}

// Validate checks internal consistency of the spec itself.
func (s *DeviceSpec) Validate() error {
	if s.Name == "" {
		return errors.New("qir: device spec requires a name")
	}
	if s.MaxQubits <= 0 {
		return fmt.Errorf("qir: device %s: MaxQubits must be positive", s.Name)
	}
	if s.MaxRabi < 0 || s.MaxDetuning < 0 || s.MinAtomSpacing < 0 {
		return fmt.Errorf("qir: device %s: limits must be non-negative", s.Name)
	}
	if s.MaxShotsPerTask <= 0 {
		return fmt.Errorf("qir: device %s: MaxShotsPerTask must be positive", s.Name)
	}
	return nil
}
