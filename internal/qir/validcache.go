package qir

import (
	"slices"
	"sync"
)

// validKey names a verdict: the program by identity, the spec by its
// interned copy — shared by equal specs (DeviceSpec.Equal) and owned by no
// device, so a key pins nothing but the copy.
type validKey struct {
	prog *Program
	spec *DeviceSpec
}

var (
	validMu   sync.Mutex
	validMemo = make(map[validKey]error)
	idents    []*DeviceSpec
)

// validMemoLimit bounds the verdict memo and identLimit the interned specs. A
// stream of unique programs or specs resets the memo or the table instead of
// growing it; replay and dispatch workloads cycle through a few dozen
// (program, spec) pairs over a handful of specs, far under the bounds.
const (
	validMemoLimit = 4096
	identLimit     = 64
)

// identLocked interns the contents of s; caller holds validMu.
func identLocked(s *DeviceSpec) *DeviceSpec {
	if i := slices.IndexFunc(idents, s.Equal); i >= 0 {
		return idents[i]
	}
	if len(idents) >= identLimit {
		idents = nil
	}
	id := *s
	id.NativeGates = slices.Clone(s.NativeGates)
	idents = append(idents, &id)
	return &id
}

// ValidateCached is Validate with a process-wide verdict memo keyed by the
// program's identity and the spec's contents. Validate walks every waveform
// sample in the program; on hot dispatch paths the same decoded program is
// checked against the same device specs thousands of times, and the memo
// collapses each distinct (program, spec) pair to one walk.
//
// The memo names a spec's contents by an interned copy, found by comparing
// the spec against the handful a process uses, so a lookup compares a few
// fields and hashes two pointers instead of hashing the whole spec. The key
// is never the caller's *DeviceSpec: that points into a device or a daemon,
// and the memo would pin every sweep cell's fleet until its next reset.
//
// Callers must treat a program as immutable once passed here: the memo
// trusts pointer identity, so mutating a validated program would leave stale
// verdicts behind. Every production path decodes programs once and never
// writes to them afterwards.
func ValidateCached(p *Program, spec *DeviceSpec) error {
	if p == nil || spec == nil {
		return p.Validate(spec)
	}
	validMu.Lock()
	vk := validKey{prog: p, spec: identLocked(spec)}
	err, ok := validMemo[vk]
	validMu.Unlock()
	if ok {
		return err
	}
	err = p.Validate(spec)
	validMu.Lock()
	if len(validMemo) >= validMemoLimit {
		validMemo = make(map[validKey]error, 64)
	}
	validMemo[vk] = err
	validMu.Unlock()
	return err
}
