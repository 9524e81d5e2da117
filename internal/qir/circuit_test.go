package qir

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCircuitBuilders(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).RZ(2, math.Pi/4).CZ(1, 2)
	if len(c.Gates) != 4 {
		t.Fatalf("gate count = %d", len(c.Gates))
	}
	if err := c.Validate(nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCircuitDepth(t *testing.T) {
	c := NewCircuit(3)
	// Layer 1: H(0), H(1), H(2) — parallel. Layer 2: CX(0,1). Layer 3: CX(1,2).
	c.H(0).H(1).H(2).CX(0, 1).CX(1, 2)
	if got := c.Depth(); got != 3 {
		t.Fatalf("Depth = %d, want 3", got)
	}
	if got := NewCircuit(2).Depth(); got != 0 {
		t.Fatalf("empty Depth = %d", got)
	}
}

func TestTwoQubitCount(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).CZ(1, 2).X(2)
	if got := c.TwoQubitCount(); got != 2 {
		t.Fatalf("TwoQubitCount = %d", got)
	}
}

func TestCircuitValidateErrors(t *testing.T) {
	t.Run("zero qubits", func(t *testing.T) {
		if err := NewCircuit(0).Validate(nil); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("unknown gate", func(t *testing.T) {
		c := NewCircuit(1)
		c.Gates = append(c.Gates, Gate{Name: "toffoli", Qubits: []int{0}})
		if err := c.Validate(nil); err == nil || !strings.Contains(err.Error(), "unknown gate") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("wrong arity", func(t *testing.T) {
		c := NewCircuit(2)
		c.Gates = append(c.Gates, Gate{Name: GateCX, Qubits: []int{0}})
		if err := c.Validate(nil); err == nil || !strings.Contains(err.Error(), "operands") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("qubit out of range", func(t *testing.T) {
		c := NewCircuit(2).H(5)
		if err := c.Validate(nil); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("duplicate operands", func(t *testing.T) {
		c := NewCircuit(2).CX(1, 1)
		if err := c.Validate(nil); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("analog device rejects circuit", func(t *testing.T) {
		spec := DefaultAnalogSpec()
		if err := NewCircuit(2).H(0).Validate(&spec); err == nil || !strings.Contains(err.Error(), "analog-only") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("non-native gate", func(t *testing.T) {
		spec := DefaultEmulatorSpec("emu", 20)
		spec.NativeGates = []string{"h", "cz"}
		if err := NewCircuit(2).H(0).CX(0, 1).Validate(&spec); err == nil || !strings.Contains(err.Error(), "not native") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("too wide", func(t *testing.T) {
		spec := DefaultEmulatorSpec("emu", 4)
		if err := NewCircuit(8).H(0).Validate(&spec); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("got %v", err)
		}
	})
}

func TestGateArity(t *testing.T) {
	if GateH.Arity() != 1 || GateCX.Arity() != 2 || GateName("bogus").Arity() != 0 {
		t.Fatal("arity table broken")
	}
}

func TestProgramValidate(t *testing.T) {
	spec := DefaultAnalogSpec()
	p := NewAnalogProgram(testSequence(3), 100)
	if err := p.Validate(&spec); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	p.Shots = 0
	if err := p.Validate(&spec); err == nil {
		t.Fatal("zero shots accepted")
	}
	p.Shots = spec.MaxShotsPerTask + 1
	if err := p.Validate(&spec); err == nil {
		t.Fatal("excess shots accepted")
	}
	if err := (&Program{Kind: KindAnalog, Shots: 1}).Validate(nil); err == nil {
		t.Fatal("nil sequence accepted")
	}
	if err := (&Program{Kind: KindDigital, Shots: 1}).Validate(nil); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if err := (&Program{Kind: "weird", Shots: 1}).Validate(nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestProgramEstimatedQPUSeconds(t *testing.T) {
	spec := DefaultAnalogSpec() // 1 Hz
	p := NewAnalogProgram(testSequence(2), 120)
	if got := p.EstimatedQPUSeconds(&spec); math.Abs(got-120) > 1e-9 {
		t.Fatalf("EstimatedQPUSeconds = %g, want 120", got)
	}
	emu := DefaultEmulatorSpec("emu", 20)
	if got := p.EstimatedQPUSeconds(&emu); got != 0 {
		t.Fatalf("emulator estimate = %g, want 0", got)
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	t.Run("analog", func(t *testing.T) {
		p := NewAnalogProgram(testSequence(3), 50)
		p.Metadata["owner"] = "alice"
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Program
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Kind != KindAnalog || got.Shots != 50 || got.NumQubits() != 3 {
			t.Fatalf("round trip lost data: %+v", got)
		}
		if got.Metadata["owner"] != "alice" {
			t.Fatalf("metadata lost")
		}
	})
	t.Run("digital", func(t *testing.T) {
		p := NewDigitalProgram(NewCircuit(4).H(0).CX(0, 1), 200)
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Program
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Kind != KindDigital || got.NumQubits() != 4 || len(got.Digital.Gates) != 2 {
			t.Fatalf("round trip lost data: %+v", got)
		}
	})
}

func TestCountsHelpers(t *testing.T) {
	c := Counts{"00": 30, "11": 70}
	if got := c.TotalShots(); got != 100 {
		t.Fatalf("TotalShots = %d", got)
	}
	if got := c.Probability("11"); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("Probability = %g", got)
	}
	if got := c.Probability("01"); got != 0 {
		t.Fatalf("missing key Probability = %g", got)
	}
	if got := (Counts{}).Probability("0"); got != 0 {
		t.Fatalf("empty counts Probability = %g", got)
	}
}

func TestDeviceSpecValidate(t *testing.T) {
	s := DefaultAnalogSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := s
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("empty name accepted")
	}
	bad = s
	bad.MaxQubits = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero qubits accepted")
	}
	bad = s
	bad.MaxRabi = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative rabi accepted")
	}
	bad = s
	bad.MaxShotsPerTask = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero shots accepted")
	}
}
