package qir

import (
	"runtime"
	"testing"
	"time"
)

// TestValidateCachedFollowsSpecContents: the memo names a spec by its
// contents, so a copy shares the verdict, a changed spec gets its own, and a
// digital spec's gate list counts as contents too.
func TestValidateCachedFollowsSpecContents(t *testing.T) {
	p := NewAnalogProgram(testSequence(4), 100)
	spec := DefaultAnalogSpec()
	if err := ValidateCached(p, &spec); err != nil {
		t.Fatalf("4 atoms on the default spec: %v", err)
	}
	small := spec
	small.MaxQubits = 2
	if err := ValidateCached(p, &small); err == nil {
		t.Fatal("4 atoms on a 2-qubit copy of the spec passed on the original's verdict")
	}
	spec.MaxQubits = 2 // the same spec value, changed in place
	if err := ValidateCached(p, &spec); err == nil {
		t.Fatal("4 atoms on the spec changed to 2 qubits passed on its old verdict")
	}

	c := NewDigitalProgram(NewCircuit(2).H(0).CX(0, 1), 10)
	digital := DefaultDigitalSpec()
	if err := ValidateCached(c, &digital); err != nil {
		t.Fatalf("h+cx on the digital spec: %v", err)
	}
	digital.NativeGates = []string{"h", "x"}
	if err := ValidateCached(c, &digital); err == nil {
		t.Fatal("cx passed on a spec whose gate list dropped it")
	}
}

// TestValidateCachedDoesNotPinSpecs: the memo keeps no caller's spec
// pointer, so a spec that lives inside a device or a sweep cell's fleet can be
// collected as soon as its owner is (EXPERIMENTS h-replay-allocs names the
// trap: keying by *DeviceSpec would pin every cell's devices).
func TestValidateCachedDoesNotPinSpecs(t *testing.T) {
	p := NewAnalogProgram(testSequence(2), 100)
	collected := make(chan struct{})
	func() {
		spec := new(DeviceSpec)
		*spec = DefaultAnalogSpec()
		runtime.SetFinalizer(spec, func(*DeviceSpec) { close(collected) })
		if err := ValidateCached(p, spec); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a validated spec is still reachable after its owner dropped it")
}
