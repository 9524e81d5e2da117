package loadgen

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hpcqc/internal/admission"
)

// TestSweep24hBurstyByteIdentical is the explicit byte-for-byte gate every
// replay-path optimization lands against: the full 3×3×4 policy matrix over
// a 24 h bursty trace, run twice — and once with GOMAXPROCS=1, so any
// parallelism added to the hot path (emulator parity layers, future fan-out)
// is proven invisible to the report bytes, not just to the Go race detector.
// The whole gate runs with tracing on: span emission and the stage-latency
// attribution it feeds must be as deterministic as the schedule itself, and
// tracing must not perturb any schedule decision (checked against a
// tracing-off run below).
func TestSweep24hBurstyByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("24h bursty determinism sweep is a test-full experiment")
	}
	proc, err := NewProcess("bursty", 150)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(Config{Seed: 2, Horizon: 24 * time.Hour, Process: proc})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Devices: 4, Seed: 2, Tracing: true}
	s1, err := Sweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 3 * len(admission.Policies.Names()); len(s1.Results) != want {
		t.Fatalf("sweep produced %d results, want %d", len(s1.Results), want)
	}
	for _, rep := range s1.Results {
		for class, c := range rep.PerClass {
			if c.Jobs > c.Rejected && len(c.Stages) == 0 {
				t.Fatalf("%s/%s/%s: traced sweep has no stage breakdown for class %s",
					rep.Router, rep.Scheduler, rep.Admission, class)
			}
		}
	}
	b1 := marshalReport(t, s1)

	s2, err := Sweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, marshalReport(t, s2)) {
		t.Fatal("24h bursty traced sweep differs between identical reruns")
	}

	prev := runtime.GOMAXPROCS(1)
	s3, err := Sweep(tr, cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, marshalReport(t, s3)) {
		t.Fatal("24h bursty traced sweep differs under GOMAXPROCS=1")
	}

	// Tracing must be an observation layer, not a schedule input: the same
	// sweep with tracing off differs only by the stage-attribution fields.
	cfg.Tracing = false
	s4, err := Sweep(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range s4.Results {
		traced := s1.Results[i]
		if rep.Completed != traced.Completed || rep.Rejected != traced.Rejected ||
			rep.Preemptions != traced.Preemptions || rep.MakespanSeconds != traced.MakespanSeconds {
			t.Fatalf("%s/%s/%s: tracing perturbed the schedule (completed %d vs %d, rejected %d vs %d, preemptions %d vs %d)",
				rep.Router, rep.Scheduler, rep.Admission,
				rep.Completed, traced.Completed, rep.Rejected, traced.Rejected, rep.Preemptions, traced.Preemptions)
		}
		for class, c := range rep.PerClass {
			if c.Stages != nil {
				t.Fatalf("%s/%s/%s: tracing-off report carries stage breakdown for %s",
					rep.Router, rep.Scheduler, rep.Admission, class)
			}
			if tc := traced.PerClass[class]; tc == nil || tc.WaitSeconds != c.WaitSeconds {
				t.Fatalf("%s/%s/%s: wait quantiles differ with tracing for %s",
					rep.Router, rep.Scheduler, rep.Admission, class)
			}
		}
	}
}
