package qir

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// TestWaveformRoundTripProperty: every waveform kind survives JSON
// serialization with its duration and sampled values intact — the property
// that makes "the same program at every stage" (Figure 1) possible at all.
func TestWaveformRoundTripProperty(t *testing.T) {
	f := func(rawDur, rawA, rawB uint16, kind uint8) bool {
		dur := 1 + float64(rawDur%2000)
		a := float64(rawA)/100 - 300
		b := float64(rawB)/100 - 300
		var w Waveform
		switch kind % 4 {
		case 0:
			w = ConstantWaveform{Dur: dur, Val: a}
		case 1:
			w = RampWaveform{Dur: dur, Start: a, Stop: b}
		case 2:
			w = BlackmanWaveform{Dur: dur, Peak: a}
		default:
			w = InterpolatedWaveform{Dur: dur, Samples: []float64{a, b, a / 2, 0}}
		}
		data, err := MarshalWaveform(w)
		if err != nil {
			return false
		}
		got, err := UnmarshalWaveform(data)
		if err != nil {
			return false
		}
		if got.Kind() != w.Kind() {
			return false
		}
		if math.Abs(got.Duration()-w.Duration()) > 1e-9 {
			return false
		}
		for i := 0; i <= 16; i++ {
			at := dur * float64(i) / 16
			if math.Abs(got.Value(at)-w.Value(at)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxAbsBoundsValueProperty: MaxAbs is an upper bound for the waveform
// at every sampled instant — the validator depends on this to enforce device
// amplitude limits.
func TestMaxAbsBoundsValueProperty(t *testing.T) {
	f := func(rawDur, rawA, rawB uint16) bool {
		dur := 1 + float64(rawDur%1000)
		start := float64(rawA)/50 - 500
		stop := float64(rawB)/50 - 500
		w := RampWaveform{Dur: dur, Start: start, Stop: stop}
		max := MaxAbs(w, 64)
		for i := 0; i <= 64; i++ {
			at := dur * float64(i) / 64
			if math.Abs(w.Value(at)) > max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestProgramRoundTripProperty: analog programs of arbitrary register size,
// pulse shape and shot count survive the Marshal/Unmarshal boundary that
// every submission path (daemon REST, QRMI payload) crosses.
func TestProgramRoundTripProperty(t *testing.T) {
	f := func(nRaw, shotsRaw uint8, rawDur, rawVal uint16) bool {
		n := int(nRaw)%24 + 1
		shots := int(shotsRaw)%1000 + 1
		dur := 1 + float64(rawDur%2000)
		val := float64(rawVal)/100 - 300
		seq := NewAnalogSequence(LinearRegister("r", n, 6))
		seq.Add(GlobalRydberg, Pulse{
			Amplitude: ConstantWaveform{Dur: dur, Val: math.Abs(val)},
			Detuning:  RampWaveform{Dur: dur, Start: -val, Stop: val},
		})
		p := NewAnalogProgram(seq, shots)
		p.Metadata = map[string]string{"origin": fmt.Sprintf("prop-%d", nRaw)}
		data, err := p.MarshalJSON()
		if err != nil {
			return false
		}
		q := new(Program)
		if err := q.UnmarshalJSON(data); err != nil {
			return false
		}
		if q.Kind != KindAnalog || q.Shots != shots || q.NumQubits() != n {
			return false
		}
		if math.Abs(q.Analog.Duration()-seq.Duration()) > 1e-9 {
			return false
		}
		return q.Metadata["origin"] == p.Metadata["origin"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCircuitRoundTripProperty: digital programs round-trip likewise, gate
// for gate, parameter for parameter.
func TestCircuitRoundTripProperty(t *testing.T) {
	f := func(nRaw, depthRaw uint8, angles []uint16) bool {
		n := int(nRaw)%8 + 2
		depth := int(depthRaw)%20 + 1
		c := NewCircuit(n)
		for i := 0; i < depth; i++ {
			q := i % n
			angle := 0.1
			if len(angles) > 0 {
				angle = float64(angles[i%len(angles)]) / 1e4
			}
			switch i % 6 {
			case 0:
				c.H(q)
			case 1:
				c.Append(GateX, 0, q)
			case 2:
				c.RZ(q, angle)
			case 3:
				c.CX(q, (q+1)%n)
			case 4:
				c.CZ(q, (q+1)%n)
			default:
				c.RX(q, angle)
			}
		}
		p := NewDigitalProgram(c, 10)
		data, err := p.MarshalJSON()
		if err != nil {
			return false
		}
		q := new(Program)
		if err := q.UnmarshalJSON(data); err != nil {
			return false
		}
		if q.Kind != KindDigital || q.NumQubits() != n || len(q.Digital.Gates) != depth {
			return false
		}
		for i, g := range q.Digital.Gates {
			want := c.Gates[i]
			if g.Name != want.Name || len(g.Qubits) != len(want.Qubits) {
				return false
			}
			if math.Abs(g.Param-want.Param) > 1e-12 {
				return false
			}
			for k := range g.Qubits {
				if g.Qubits[k] != want.Qubits[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterGeometryProperty: generated register layouts respect their
// declared spacing — the validator's minimum-distance check relies on it.
func TestRegisterGeometryProperty(t *testing.T) {
	f := func(nRaw uint8, spacingRaw uint16) bool {
		n := int(nRaw)%30 + 2
		spacing := 4 + float64(spacingRaw%20)
		reg := LinearRegister("l", n, spacing)
		min := math.Inf(1)
		for i := range reg.Atoms {
			for j := i + 1; j < len(reg.Atoms); j++ {
				if d := reg.Atoms[i].Distance(reg.Atoms[j]); d < min {
					min = d
				}
			}
		}
		// No pair may sit closer than the requested spacing (up to
		// floating-point rounding).
		return min >= spacing-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
