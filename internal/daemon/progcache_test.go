package daemon

import (
	"bytes"
	"math"
	"testing"

	"hpcqc/internal/qir"
)

// menuPayload is program i of a loadgen-shaped menu, as the serve-mixed
// workload builds it: loadgen.BuildProgram (which this package cannot import)
// on 1–4 atoms with 10+i/4 shots, so every i is a distinct payload.
func menuPayload(t testing.TB, i int) []byte {
	t.Helper()
	seq := qir.NewAnalogSequence(qir.LinearRegister("loadgen", 1+i%4, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: 50, Val: 2 * math.Pi},
		Detuning:  qir.ConstantWaveform{Dur: 50, Val: 0},
	})
	raw, err := qir.NewAnalogProgram(seq, 10+i/4).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// resetDecodeMemo empties the process-wide memo, so a test starts from what
// it puts there itself rather than from what earlier tests left behind.
func resetDecodeMemo() {
	progMu.Lock()
	progCache, progBytes = make(map[string]progEntry), 0
	progMu.Unlock()
}

// retainedPayloadBytes sums the payload bytes the memo holds, from the map
// itself rather than from the memo's own running count.
func retainedPayloadBytes() int {
	progMu.Lock()
	defer progMu.Unlock()
	n := 0
	for k := range progCache {
		n += len(k)
	}
	return n
}

// TestDecodeMemoHoldsTheMenu: a working set under the byte budget is never
// dropped. A client cycling 1 024 distinct programs — four times what an
// entry-count bound of 256 held — gets the same decoded program back on its
// second lap, and that lap decodes (and allocates) nothing.
func TestDecodeMemoHoldsTheMenu(t *testing.T) {
	resetDecodeMemo()
	defer resetDecodeMemo()
	const menu = 1024
	payloads := make([][]byte, menu)
	first := make([]*qir.Program, menu)
	for i := range payloads {
		payloads[i] = menuPayload(t, i)
		prog, _, err := cachedProgram(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		first[i] = prog
	}
	for i, p := range payloads {
		if prog, _, _ := cachedProgram(p); prog != first[i] {
			t.Fatalf("program %d of %d was decoded again on the second lap", i, menu)
		}
	}
	lap := func() {
		for _, p := range payloads {
			_, _, _ = cachedProgram(p)
		}
	}
	if n := testing.AllocsPerRun(3, lap); n != 0 {
		t.Fatalf("a lap over a held menu allocates %.0f times", n)
	}
}

// TestDecodeMemoBoundedByBytes: a flood of unique payloads, each as large as
// a request body may be, never leaves the memo holding more payload bytes
// than its budget — the guarantee the entry-count bound gave only for
// payloads of one size.
func TestDecodeMemoBoundedByBytes(t *testing.T) {
	resetDecodeMemo()
	defer resetDecodeMemo()
	base := menuPayload(t, 0)
	const steps = 48
	for i := 1; i <= steps; i++ {
		// Trailing whitespace keeps the program valid and makes each payload
		// unique, from a few kilobytes up to the body cap.
		p := append(bytes.Clone(base), bytes.Repeat([]byte{' '}, i*(maxBodyBytes-len(base))/steps)...)
		if _, _, err := cachedProgram(p); err != nil {
			t.Fatal(err)
		}
		if n := retainedPayloadBytes(); n > progCacheBytes {
			t.Fatalf("after %d payloads of up to %d B the memo holds %d payload bytes, budget %d",
				i, len(p), n, progCacheBytes)
		}
	}
}
