package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcqc/internal/qir"
)

func piPulse(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("one", 1, 10))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

func TestBuiltinProfilesResolveDefault(t *testing.T) {
	p := BuiltinProfiles()
	cfg, err := p.Resolve("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg["resource"] != "local-sv" || cfg["resource_type"] != "emu-sv" {
		t.Fatalf("cfg = %v", cfg)
	}
}

func TestResolvePrecedence(t *testing.T) {
	p := BuiltinProfiles()
	// Environment names the resource when no flag is given.
	cfg, err := p.Resolve("", []string{"QRMI_RESOURCE=hpc-mps"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg["resource"] != "hpc-mps" || cfg["mps_bond_dim"] != "16" {
		t.Fatalf("cfg = %v", cfg)
	}
	// Flag beats environment.
	cfg, err = p.Resolve("mock-qpu", []string{"QRMI_RESOURCE=hpc-mps"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg["resource"] != "mock-qpu" || cfg["mps_bond_dim"] != "1" {
		t.Fatalf("cfg = %v", cfg)
	}
	// Extra env settings overlay the profile.
	cfg, err = p.Resolve("local-sv", []string{"QRMI_SEED=99"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg["seed"] != "99" {
		t.Fatalf("cfg = %v", cfg)
	}
	// Unknown name fails with the catalogue in the message.
	if _, err := p.Resolve("ghost", nil); err == nil || !strings.Contains(err.Error(), "profiles:") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadProfilesOverlay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "qrmi.json")
	content := `{
	  "default": "site-emu",
	  "profiles": {
	    "site-emu": {"resource_type": "emu-mps", "mps_bond_dim": "8"},
	    "local-sv": {"resource_type": "emu-sv", "seed": "5"}
	  }
	}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Default != "site-emu" {
		t.Fatalf("default = %s", p.Default)
	}
	// File overrides the builtin local-sv.
	if p.ByName["local-sv"]["seed"] != "5" {
		t.Fatalf("override lost: %v", p.ByName["local-sv"])
	}
	// Builtins not in the file survive.
	if _, ok := p.ByName["mock-qpu"]; !ok {
		t.Fatal("builtin lost")
	}
	if _, err := LoadProfiles(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadProfiles(bad); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestRuntimeExecuteLocalSV(t *testing.T) {
	rt, err := NewRuntimeFor("local-sv", "", []string{"QRMI_SEED=7"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Target() != "emu-sv" {
		t.Fatalf("target = %s", rt.Target())
	}
	res, err := rt.Execute(piPulse(100))
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Counts.Probability("1"); p < 0.95 {
		t.Fatalf("P(1) = %g", p)
	}
	if res.Metadata["resource"] != "local-sv" {
		t.Fatalf("metadata = %v", res.Metadata)
	}
}

func TestRuntimeValidationFailsEarly(t *testing.T) {
	rt, err := NewRuntimeFor("local-sv", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// 25 qubits exceed the SV emulator's spec: rejected before execution.
	big := qir.NewAnalogSequence(qir.LinearRegister("big", 25, 6))
	big.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: 100, Val: 1},
		Detuning:  qir.ConstantWaveform{Dur: 100, Val: 0},
	})
	if _, err := rt.Execute(qir.NewAnalogProgram(big, 10)); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestSameProgramThreeEnvironments(t *testing.T) {
	// The Figure 1 property end-to-end at the runtime level: identical
	// program and code path; only the --qpu flag changes.
	program := piPulse(1000)
	for _, target := range []string{"local-sv", "hpc-mps", "mock-qpu"} {
		rt, err := NewRuntimeFor(target, "", []string{"QRMI_SEED=3"})
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		res, err := rt.Execute(program)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		// A single-atom pi pulse has no entanglement, so even the χ=1
		// mock gets the physics right.
		if p := res.Counts.Probability("1"); p < 0.95 {
			t.Fatalf("%s: P(1) = %g", target, p)
		}
	}
}

func TestMockQPUAcceptsHugeRegisters(t *testing.T) {
	rt, err := NewRuntimeFor("mock-qpu", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Spec().MaxQubits < 1000 {
		t.Fatalf("mock max qubits = %d", rt.Spec().MaxQubits)
	}
	seq := qir.NewAnalogSequence(qir.LinearRegister("huge", 300, 6))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.BlackmanWaveform{Dur: 200, Peak: 3},
		Detuning:  qir.ConstantWaveform{Dur: 200, Val: 0},
	})
	res, err := rt.Execute(qir.NewAnalogProgram(seq, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 5 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
}

func TestRunHybridConvergesOnSimpleLandscape(t *testing.T) {
	// Minimize P(atom stays in ground state) over pulse duration scale:
	// optimum is the pi pulse. One parameter, smooth landscape.
	rt, err := NewRuntimeFor("local-sv", "", []string{"QRMI_SEED=11"})
	if err != nil {
		t.Fatal(err)
	}
	omega := 2 * math.Pi
	build := func(params []float64) (*qir.Program, error) {
		dur := math.Abs(params[0]) * 1000 // µs scale factor → ns
		if dur < 10 {
			dur = 10
		}
		seq := qir.NewAnalogSequence(qir.LinearRegister("one", 1, 10))
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: dur, Val: omega},
			Detuning:  qir.ConstantWaveform{Dur: dur, Val: 0},
		})
		return qir.NewAnalogProgram(seq, 400), nil
	}
	cost := func(c qir.Counts) float64 { return c.Probability("0") }
	// Start at 0.25 of the pi-pulse duration (pi duration = 0.5 in these
	// units since omega = 2 pi rad/us → t_pi = 0.5 us).
	res, err := rt.RunHybrid([]float64{0.2}, build, cost, HybridOptions{
		Iterations: 25, Seed: 5, Step: 0.05, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > 0.2 {
		t.Fatalf("hybrid loop did not converge: best cost %g (params %v)", res.BestCost, res.BestParams)
	}
	if res.Evaluations < 25 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if len(res.CostHistory) != 26 {
		t.Fatalf("history length = %d", len(res.CostHistory))
	}
}

func TestRunHybridValidation(t *testing.T) {
	rt, _ := NewRuntimeFor("local-sv", "", nil)
	if _, err := rt.RunHybrid(nil, nil, nil, HybridOptions{}); err == nil {
		t.Fatal("nil functions accepted")
	}
	build := func([]float64) (*qir.Program, error) { return piPulse(10), nil }
	cost := func(qir.Counts) float64 { return 0 }
	if _, err := rt.RunHybrid([]float64{}, build, cost, HybridOptions{}); err == nil {
		t.Fatal("empty params accepted")
	}
}

func TestRunHybridCallback(t *testing.T) {
	rt, _ := NewRuntimeFor("local-sv", "", nil)
	build := func([]float64) (*qir.Program, error) { return piPulse(20), nil }
	cost := func(c qir.Counts) float64 { return c.Probability("0") }
	calls := 0
	_, err := rt.RunHybrid([]float64{1}, build, cost, HybridOptions{
		Iterations:  3,
		OnIteration: func(int, float64) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("callback calls = %d", calls)
	}
}

func TestDigitalRoadmapProfile(t *testing.T) {
	rt, err := NewRuntimeFor("qpu-digital", "", []string{"QRMI_QPU_POLL_ADVANCE_S=30"})
	if err != nil {
		t.Fatal(err)
	}
	spec := rt.Spec()
	if !spec.Digital || spec.Name != "digital-qpu" {
		t.Fatalf("spec = %+v", spec)
	}
	res, err := rt.Execute(qir.NewDigitalProgram(qir.NewCircuit(2).H(0).CX(0, 1), 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 30 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	// The analog on-prem profile still rejects the same circuit: the
	// runtime's validation story, not the SDK's.
	analog, err := NewRuntimeFor("qpu-onprem", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analog.Execute(qir.NewDigitalProgram(qir.NewCircuit(2).H(0), 5)); err == nil {
		t.Fatal("analog device accepted a circuit")
	}
}
