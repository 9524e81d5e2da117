package emulator

import (
	"fmt"
	"math/rand"
	"strconv"

	"hpcqc/internal/qir"
)

// Backend is the execution contract every emulator implements. QRMI wraps a
// Backend (or the device model, which satisfies the same shape) so the
// runtime can switch between them with a configuration change only.
type Backend interface {
	// Name identifies the backend in results metadata and telemetry.
	Name() string
	// Spec returns the capabilities the backend advertises; the runtime
	// fetches it at each workflow stage (paper Figure 1).
	Spec() qir.DeviceSpec
	// Run executes a validated program and returns measured counts. The
	// seed makes emulation reproducible across environments — part of the
	// portability story.
	Run(p *qir.Program, seed int64) (*qir.Result, error)
}

// SVConfig configures the exact state-vector backend.
type SVConfig struct {
	// MaxQubits caps accepted programs; defaults to MaxStateVectorQubits.
	MaxQubits int
	// DTNs is the analog integration step in nanoseconds (default 1).
	DTNs float64
	// Noise is the readout noise model applied to sampled counts.
	Noise NoiseModel
}

// SVBackend is the exact state-vector emulator, the default development
// target for small programs ("run on the laptop" in the paper's workflow).
type SVBackend struct {
	cfg  SVConfig
	spec qir.DeviceSpec
}

// NewSVBackend returns a state-vector backend with the given config.
func NewSVBackend(cfg SVConfig) *SVBackend {
	if cfg.MaxQubits <= 0 || cfg.MaxQubits > MaxStateVectorQubits {
		cfg.MaxQubits = MaxStateVectorQubits
	}
	if cfg.DTNs <= 0 {
		cfg.DTNs = 1
	}
	spec := qir.DefaultEmulatorSpec("emu-sv", cfg.MaxQubits)
	spec.SupportsLocalDetuning = true
	return &SVBackend{cfg: cfg, spec: spec}
}

// Name implements Backend.
func (b *SVBackend) Name() string { return b.spec.Name }

// Spec implements Backend.
func (b *SVBackend) Spec() qir.DeviceSpec { return b.spec }

// Run implements Backend.
func (b *SVBackend) Run(p *qir.Program, seed int64) (*qir.Result, error) {
	if err := p.Validate(&b.spec); err != nil {
		return nil, err
	}
	sv, err := NewStateVector(p.NumQubits())
	if err != nil {
		return nil, err
	}
	switch p.Kind {
	case qir.KindAnalog:
		if err := sv.EvolveAnalog(p.Analog, b.spec.C6, b.cfg.DTNs); err != nil {
			return nil, err
		}
	case qir.KindDigital:
		if err := sv.RunCircuit(p.Digital); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	counts := sv.Sample(p.Shots, rng)
	counts = b.cfg.Noise.Apply(counts, rng)
	return &qir.Result{
		Counts: counts,
		Metadata: map[string]string{
			"backend":     b.Name(),
			"method":      "statevector",
			"shots":       strconv.Itoa(p.Shots),
			"seed":        strconv.FormatInt(seed, 10),
			"noise_model": fmt.Sprintf("prep=%g,fp=%g,fn=%g", b.cfg.Noise.EpsPrep, b.cfg.Noise.EpsFalsePos, b.cfg.Noise.EpsFalseNeg),
		},
	}, nil
}

// mpsCutoff is the MPS backend's relative squared singular-value cutoff.
const mpsCutoff = 1e-10

// MPSConfig configures the tensor-network backend.
type MPSConfig struct {
	// MaxBond is the bond-dimension cap χ; 1 gives the product-state mock.
	MaxBond int
	// MaxQubits caps accepted programs (default 128).
	MaxQubits int
	// DTNs is the Trotter step for analog evolution in ns (default 2).
	DTNs float64
	// Noise is the readout noise model applied to sampled counts.
	Noise NoiseModel
}

// MPSBackend is the tensor-network emulator: the HPC-scale test target in
// the paper's workflow, and — with MaxBond=1 — the arbitrarily-large mock QPU
// used in end-to-end tests.
type MPSBackend struct {
	cfg  MPSConfig
	spec qir.DeviceSpec
}

// NewMPSBackend returns a tensor-network backend with the given config.
func NewMPSBackend(cfg MPSConfig) *MPSBackend {
	if cfg.MaxBond < 1 {
		cfg.MaxBond = 16
	}
	if cfg.MaxQubits <= 0 {
		cfg.MaxQubits = 128
	}
	if cfg.DTNs <= 0 {
		cfg.DTNs = 2
	}
	spec := qir.DefaultEmulatorSpec(fmt.Sprintf("emu-mps-chi%d", cfg.MaxBond), cfg.MaxQubits)
	spec.SupportsLocalDetuning = true
	return &MPSBackend{cfg: cfg, spec: spec}
}

// Name implements Backend.
func (b *MPSBackend) Name() string { return b.spec.Name }

// Spec implements Backend.
func (b *MPSBackend) Spec() qir.DeviceSpec { return b.spec }

// Run implements Backend.
func (b *MPSBackend) Run(p *qir.Program, seed int64) (*qir.Result, error) {
	if err := p.Validate(&b.spec); err != nil {
		return nil, err
	}
	mps, err := NewMPS(p.NumQubits(), b.cfg.MaxBond)
	if err != nil {
		return nil, err
	}
	mps.Cutoff = mpsCutoff
	switch p.Kind {
	case qir.KindAnalog:
		if err := mps.EvolveAnalogTEBD(p.Analog, b.spec.C6, b.cfg.DTNs); err != nil {
			return nil, err
		}
	case qir.KindDigital:
		if err := mps.RunCircuit(p.Digital); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	counts := mps.Sample(p.Shots, rng)
	counts = b.cfg.Noise.Apply(counts, rng)
	return &qir.Result{
		Counts: counts,
		Metadata: map[string]string{
			"backend":          b.Name(),
			"method":           "mps",
			"bond_dimension":   strconv.Itoa(b.cfg.MaxBond),
			"max_bond_reached": strconv.Itoa(mps.MaxBondDim()),
			"truncation_error": strconv.FormatFloat(mps.TruncationError, 'g', 6, 64),
			"shots":            strconv.Itoa(p.Shots),
			"seed":             strconv.FormatInt(seed, 10),
		},
	}, nil
}
