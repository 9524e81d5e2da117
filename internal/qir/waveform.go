package qir

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Waveform is a scalar control signal over time. Time is in nanoseconds,
// values are in rad/µs (the convention used by analog neutral-atom SDKs for
// both Rabi amplitude and detuning).
type Waveform interface {
	// Duration returns the length of the waveform in nanoseconds.
	Duration() float64
	// Value returns the signal value at time t ∈ [0, Duration()].
	Value(t float64) float64
	// Kind returns the serialization discriminator.
	Kind() string
}

// ConstantWaveform holds a fixed value for a fixed duration.
type ConstantWaveform struct {
	Dur float64 `json:"duration"`
	Val float64 `json:"value"`
}

func (w ConstantWaveform) Duration() float64       { return w.Dur }
func (w ConstantWaveform) Value(t float64) float64 { return w.Val }
func (w ConstantWaveform) Kind() string            { return "constant" }

// RampWaveform interpolates linearly from Start to Stop.
type RampWaveform struct {
	Dur   float64 `json:"duration"`
	Start float64 `json:"start"`
	Stop  float64 `json:"stop"`
}

func (w RampWaveform) Duration() float64 { return w.Dur }
func (w RampWaveform) Value(t float64) float64 {
	if w.Dur == 0 {
		return w.Start
	}
	frac := t / w.Dur
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return w.Start + (w.Stop-w.Start)*frac
}
func (w RampWaveform) Kind() string { return "ramp" }

// BlackmanWaveform is a smooth bell-shaped pulse with the given peak area
// under the curve, the standard adiabatic drive shape on analog hardware.
type BlackmanWaveform struct {
	Dur  float64 `json:"duration"`
	Peak float64 `json:"peak"`
}

func (w BlackmanWaveform) Duration() float64 { return w.Dur }
func (w BlackmanWaveform) Value(t float64) float64 {
	if t < 0 || t > w.Dur || w.Dur == 0 {
		return 0
	}
	x := t / w.Dur
	// Classic Blackman window coefficients.
	return w.Peak * (0.42 - 0.5*math.Cos(2*math.Pi*x) + 0.08*math.Cos(4*math.Pi*x))
}
func (w BlackmanWaveform) Kind() string { return "blackman" }

// InterpolatedWaveform linearly interpolates through arbitrary sample points
// spread uniformly over the duration.
type InterpolatedWaveform struct {
	Dur     float64   `json:"duration"`
	Samples []float64 `json:"samples"`
}

func (w InterpolatedWaveform) Duration() float64 { return w.Dur }
func (w InterpolatedWaveform) Value(t float64) float64 {
	n := len(w.Samples)
	switch {
	case n == 0:
		return 0
	case n == 1, w.Dur == 0:
		return w.Samples[0]
	}
	frac := t / w.Dur
	if frac <= 0 {
		return w.Samples[0]
	}
	if frac >= 1 {
		return w.Samples[n-1]
	}
	pos := frac * float64(n-1)
	i := int(pos)
	rem := pos - float64(i)
	return w.Samples[i]*(1-rem) + w.Samples[i+1]*rem
}
func (w InterpolatedWaveform) Kind() string { return "interpolated" }

// CompositeWaveform concatenates waveforms in time.
type CompositeWaveform struct {
	Parts []Waveform
}

func (w CompositeWaveform) Duration() float64 {
	var d float64
	for _, p := range w.Parts {
		d += p.Duration()
	}
	return d
}

func (w CompositeWaveform) Value(t float64) float64 {
	for _, p := range w.Parts {
		if t <= p.Duration() {
			return p.Value(t)
		}
		t -= p.Duration()
	}
	return 0
}
func (w CompositeWaveform) Kind() string { return "composite" }

// MaxAbs returns the maximum of |w| sampled on a uniform grid. Analog device
// validation uses it to enforce hardware amplitude and detuning bounds.
func MaxAbs(w Waveform, samples int) float64 {
	if samples < 2 {
		samples = 2
	}
	d := w.Duration()
	max := 0.0
	for i := 0; i < samples; i++ {
		t := d * float64(i) / float64(samples-1)
		if v := math.Abs(w.Value(t)); v > max {
			max = v
		}
	}
	return max
}

// MaxSlope returns the maximum of |dw/dt| (rad/µs per ns) estimated by finite
// differences, used to validate against hardware modulation bandwidth.
func MaxSlope(w Waveform, samples int) float64 {
	if samples < 3 {
		samples = 3
	}
	d := w.Duration()
	if d == 0 {
		return 0
	}
	dt := d / float64(samples-1)
	max := 0.0
	prev := w.Value(0)
	for i := 1; i < samples; i++ {
		cur := w.Value(dt * float64(i))
		if s := math.Abs(cur-prev) / dt; s > max {
			max = s
		}
		prev = cur
	}
	return max
}

// waveformEnvelope is the serialization wrapper for the Waveform interface.
type waveformEnvelope struct {
	Kind     string            `json:"kind"`
	Constant *ConstantWaveform `json:"constant,omitempty"`
	Ramp     *RampWaveform     `json:"ramp,omitempty"`
	Blackman *BlackmanWaveform `json:"blackman,omitempty"`
	Interp   *InterpolatedWaveform
	Parts    []json.RawMessage `json:"parts,omitempty"`
}

// MarshalWaveform serializes any built-in waveform to JSON.
func MarshalWaveform(w Waveform) ([]byte, error) {
	switch v := w.(type) {
	case ConstantWaveform:
		return json.Marshal(waveformEnvelope{Kind: v.Kind(), Constant: &v})
	case RampWaveform:
		return json.Marshal(waveformEnvelope{Kind: v.Kind(), Ramp: &v})
	case BlackmanWaveform:
		return json.Marshal(waveformEnvelope{Kind: v.Kind(), Blackman: &v})
	case InterpolatedWaveform:
		return json.Marshal(struct {
			Kind   string               `json:"kind"`
			Interp InterpolatedWaveform `json:"interp"`
		}{v.Kind(), v})
	case CompositeWaveform:
		parts := make([]json.RawMessage, len(v.Parts))
		for i, p := range v.Parts {
			b, err := MarshalWaveform(p)
			if err != nil {
				return nil, err
			}
			parts[i] = b
		}
		return json.Marshal(waveformEnvelope{Kind: v.Kind(), Parts: parts})
	default:
		return nil, fmt.Errorf("qir: unknown waveform type %T", w)
	}
}

// UnmarshalWaveform deserializes a waveform produced by MarshalWaveform.
func UnmarshalWaveform(data []byte) (Waveform, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("qir: decoding waveform: %w", err)
	}
	switch probe.Kind {
	case "constant":
		var env struct {
			Constant ConstantWaveform `json:"constant"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, err
		}
		return env.Constant, nil
	case "ramp":
		var env struct {
			Ramp RampWaveform `json:"ramp"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, err
		}
		return env.Ramp, nil
	case "blackman":
		var env struct {
			Blackman BlackmanWaveform `json:"blackman"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, err
		}
		return env.Blackman, nil
	case "interpolated":
		var env struct {
			Interp InterpolatedWaveform `json:"interp"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, err
		}
		return env.Interp, nil
	case "composite":
		var env struct {
			Parts []json.RawMessage `json:"parts"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, err
		}
		parts := make([]Waveform, len(env.Parts))
		for i, raw := range env.Parts {
			w, err := UnmarshalWaveform(raw)
			if err != nil {
				return nil, err
			}
			parts[i] = w
		}
		return CompositeWaveform{Parts: parts}, nil
	case "":
		return nil, errors.New("qir: waveform missing kind")
	default:
		return nil, fmt.Errorf("qir: unknown waveform kind %q", probe.Kind)
	}
}
