package device

import (
	"fmt"
	"strconv"

	"hpcqc/internal/emulator"
	"hpcqc/internal/qir"
)

// noCounts is the empty, read-only Counts timing-only results share.
var noCounts = qir.Counts{}

// execute runs the program through the emulator substrate with the current
// calibration distortions applied — the "hardware truth" of the model.
func (d *Device) execute(p *qir.Program, calib Calibration, seed int64) (*qir.Result, error) {
	if p.Kind == qir.KindDigital && !d.spec.Digital {
		return nil, fmt.Errorf("device: %s is analog-only", d.spec.Name)
	}
	if d.cfg.TimingOnly {
		// Timing-only results carry no measured counts and no calibration
		// snapshot (nothing was executed against the calibration state), so
		// none of the per-task float formatting is paid either. QPUSeconds —
		// the only field scheduling analytics consume — is still set. Counts
		// and Metadata are shared by every such result and read-only (see
		// TaskResult), so a result is one allocation.
		meta := d.timingMeta[0]
		if d.Status() == StatusDegraded {
			meta = d.timingMeta[1]
		}
		return &qir.Result{Counts: noCounts, Metadata: meta, QPUSeconds: p.EstimatedQPUSeconds(&d.spec)}, nil
	}
	distorted := p
	if p.Kind == qir.KindAnalog && (calib.RabiFactor != 1 || calib.DetuningOffset != 0) {
		distorted = distortProgram(p, calib)
	}
	noise := emulator.NoiseModel{
		EpsPrep:     calib.AtomLossProb,
		EpsFalsePos: 0.01,
		EpsFalseNeg: 0.02,
	}
	// Pick the emulation substrate for the "hardware truth": exact for
	// small programs, tensor network above the state-vector limit.
	var backend emulator.Backend
	if p.NumQubits() <= 12 {
		backend = emulator.NewSVBackend(emulator.SVConfig{DTNs: 1, Noise: noise})
	} else {
		backend = emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: 8, MaxQubits: d.spec.MaxQubits, Noise: noise})
	}
	res, err := backend.Run(distorted, seed)
	if err != nil {
		return nil, err
	}
	d.annotateResult(res, p, calib, "hardware")
	return res, nil
}

// annotateResult overwrites emulator identity with device identity plus the
// per-job calibration metadata users need to interpret noisy results.
func (d *Device) annotateResult(res *qir.Result, p *qir.Program, calib Calibration, method string) {
	res.Metadata["backend"] = d.spec.Name
	res.Metadata["method"] = method
	res.Metadata["calib_rabi_factor"] = strconv.FormatFloat(calib.RabiFactor, 'g', 6, 64)
	res.Metadata["calib_detuning_offset"] = strconv.FormatFloat(calib.DetuningOffset, 'g', 6, 64)
	res.Metadata["calib_age_seconds"] = strconv.FormatFloat((d.cfg.Clock.Now() - calib.LastCalibrated).Seconds(), 'g', 6, 64)
	if d.Status() == StatusDegraded {
		res.Metadata["degraded"] = "true"
	}
	res.QPUSeconds = p.EstimatedQPUSeconds(&d.spec)
}

// distortProgram applies calibration error to every global pulse.
func distortProgram(p *qir.Program, calib Calibration) *qir.Program {
	seq := qir.NewAnalogSequence(p.Analog.Register)
	for k, v := range p.Analog.Metadata {
		seq.Metadata[k] = v
	}
	for ch, pulses := range p.Analog.Channels {
		for _, pulse := range pulses {
			seq.Add(ch, qir.Pulse{
				Amplitude: scaledWaveform{pulse.Amplitude, calib.RabiFactor, 0},
				Detuning:  scaledWaveform{pulse.Detuning, 1, calib.DetuningOffset},
				Phase:     pulse.Phase,
				Targets:   pulse.Targets,
			})
		}
	}
	out := qir.NewAnalogProgram(seq, p.Shots)
	out.Metadata = p.Metadata
	return out
}

// scaledWaveform wraps a waveform with a multiplicative and additive
// calibration distortion. It never leaves the device, so it does not need to
// serialize.
type scaledWaveform struct {
	inner  qir.Waveform
	factor float64
	offset float64
}

func (w scaledWaveform) Duration() float64 { return w.inner.Duration() }
func (w scaledWaveform) Value(t float64) float64 {
	return w.inner.Value(t)*w.factor + w.offset
}
func (w scaledWaveform) Kind() string { return "scaled" }
