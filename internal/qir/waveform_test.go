package qir

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstantWaveform(t *testing.T) {
	w := ConstantWaveform{Dur: 100, Val: 3.5}
	if w.Duration() != 100 {
		t.Fatalf("Duration = %g", w.Duration())
	}
	for _, tt := range []float64{0, 50, 100} {
		if got := w.Value(tt); got != 3.5 {
			t.Fatalf("Value(%g) = %g, want 3.5", tt, got)
		}
	}
}

func TestRampWaveformEndpoints(t *testing.T) {
	w := RampWaveform{Dur: 200, Start: -1, Stop: 3}
	if got := w.Value(0); got != -1 {
		t.Fatalf("Value(0) = %g", got)
	}
	if got := w.Value(200); got != 3 {
		t.Fatalf("Value(200) = %g", got)
	}
	if got := w.Value(100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Value(100) = %g, want 1", got)
	}
	// Out-of-range times clamp.
	if got := w.Value(-5); got != -1 {
		t.Fatalf("Value(-5) = %g", got)
	}
	if got := w.Value(500); got != 3 {
		t.Fatalf("Value(500) = %g", got)
	}
}

func TestRampZeroDuration(t *testing.T) {
	w := RampWaveform{Dur: 0, Start: 2, Stop: 7}
	if got := w.Value(0); got != 2 {
		t.Fatalf("Value(0) = %g, want Start", got)
	}
}

func TestBlackmanWaveformShape(t *testing.T) {
	w := BlackmanWaveform{Dur: 1000, Peak: 10}
	// Zero at both ends (within window leakage), peak at centre.
	if v := w.Value(0); math.Abs(v) > 1e-9 {
		t.Fatalf("Value(0) = %g, want ~0", v)
	}
	if v := w.Value(1000); math.Abs(v) > 1e-9 {
		t.Fatalf("Value(end) = %g, want ~0", v)
	}
	centre := w.Value(500)
	if math.Abs(centre-10) > 1e-9 {
		t.Fatalf("Value(centre) = %g, want 10", centre)
	}
	// Monotone rise on the first half at a few sample points.
	prev := -1.0
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		v := w.Value(1000 * frac)
		if v < prev {
			t.Fatalf("Blackman not rising at frac %g", frac)
		}
		prev = v
	}
}

func TestInterpolatedWaveform(t *testing.T) {
	w := InterpolatedWaveform{Dur: 100, Samples: []float64{0, 10, 0}}
	if got := w.Value(0); got != 0 {
		t.Fatalf("Value(0) = %g", got)
	}
	if got := w.Value(50); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Value(50) = %g, want 10", got)
	}
	if got := w.Value(25); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Value(25) = %g, want 5", got)
	}
	if got := w.Value(100); got != 0 {
		t.Fatalf("Value(100) = %g", got)
	}
}

func TestInterpolatedDegenerate(t *testing.T) {
	if got := (InterpolatedWaveform{Dur: 10}).Value(5); got != 0 {
		t.Fatalf("empty samples Value = %g", got)
	}
	if got := (InterpolatedWaveform{Dur: 10, Samples: []float64{4}}).Value(5); got != 4 {
		t.Fatalf("single sample Value = %g", got)
	}
}

func TestCompositeWaveform(t *testing.T) {
	w := CompositeWaveform{Parts: []Waveform{
		ConstantWaveform{Dur: 100, Val: 1},
		RampWaveform{Dur: 100, Start: 1, Stop: 2},
	}}
	if got := w.Duration(); got != 200 {
		t.Fatalf("Duration = %g", got)
	}
	if got := w.Value(50); got != 1 {
		t.Fatalf("Value(50) = %g", got)
	}
	if got := w.Value(150); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("Value(150) = %g, want 1.5", got)
	}
	if got := w.Value(300); got != 0 {
		t.Fatalf("Value past end = %g, want 0", got)
	}
}

func TestMaxAbs(t *testing.T) {
	w := RampWaveform{Dur: 100, Start: -4, Stop: 2}
	if got := MaxAbs(w, 101); math.Abs(got-4) > 1e-9 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
}

func TestMaxSlopeConstantIsZero(t *testing.T) {
	if got := MaxSlope(ConstantWaveform{Dur: 100, Val: 5}, 64); got != 0 {
		t.Fatalf("MaxSlope(constant) = %g", got)
	}
}

func TestMaxSlopeRamp(t *testing.T) {
	// Slope = (stop-start)/dur = 10/100 = 0.1 per ns everywhere.
	got := MaxSlope(RampWaveform{Dur: 100, Start: 0, Stop: 10}, 64)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("MaxSlope = %g, want 0.1", got)
	}
}

func TestWaveformRoundTrip(t *testing.T) {
	waveforms := []Waveform{
		ConstantWaveform{Dur: 10, Val: 1.5},
		RampWaveform{Dur: 20, Start: 0, Stop: 5},
		BlackmanWaveform{Dur: 500, Peak: 12.5},
		InterpolatedWaveform{Dur: 30, Samples: []float64{1, 2, 3}},
		CompositeWaveform{Parts: []Waveform{
			ConstantWaveform{Dur: 5, Val: 2},
			RampWaveform{Dur: 5, Start: 2, Stop: 0},
		}},
	}
	for _, w := range waveforms {
		data, err := MarshalWaveform(w)
		if err != nil {
			t.Fatalf("marshal %s: %v", w.Kind(), err)
		}
		got, err := UnmarshalWaveform(data)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", w.Kind(), err)
		}
		if got.Kind() != w.Kind() {
			t.Fatalf("kind mismatch: %s vs %s", got.Kind(), w.Kind())
		}
		if math.Abs(got.Duration()-w.Duration()) > 1e-12 {
			t.Fatalf("%s duration changed: %g vs %g", w.Kind(), got.Duration(), w.Duration())
		}
		// Sampled values survive the round trip.
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			tt := w.Duration() * frac
			if math.Abs(got.Value(tt)-w.Value(tt)) > 1e-12 {
				t.Fatalf("%s value changed at t=%g", w.Kind(), tt)
			}
		}
	}
}

func TestUnmarshalWaveformErrors(t *testing.T) {
	for _, data := range []string{`{}`, `{"kind":"warble"}`, `not json`} {
		if _, err := UnmarshalWaveform([]byte(data)); err == nil {
			t.Errorf("UnmarshalWaveform(%q) did not fail", data)
		}
	}
}

func TestRampValueWithinBoundsProperty(t *testing.T) {
	f := func(start, stop float64, frac uint8) bool {
		if math.IsNaN(start) || math.IsInf(start, 0) || math.IsNaN(stop) || math.IsInf(stop, 0) {
			return true
		}
		start = math.Mod(start, 1e3)
		stop = math.Mod(stop, 1e3)
		w := RampWaveform{Dur: 100, Start: start, Stop: stop}
		v := w.Value(100 * float64(frac) / 255)
		lo, hi := math.Min(start, stop), math.Max(start, stop)
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
