package qir

import (
	"slices"
	"sync"
)

// specIdent is the memo's name for one spec's contents: interned, so equal
// specs share it, and owned by no device, so a memo key holding it pins
// nothing but a copy of the spec.
type specIdent struct{ spec DeviceSpec }

// describes reports whether s has the contents id names. Two specs it calls
// equal are indistinguishable to Validate — including the error strings,
// which embed the spec name — so a verdict memoized under one is exact for
// the other. New DeviceSpec fields must be compared here or the memo goes
// stale.
func (id *specIdent) describes(s *DeviceSpec) bool {
	a := &id.spec
	return a.Name == s.Name && a.MaxQubits == s.MaxQubits && a.MinAtomSpacing == s.MinAtomSpacing &&
		a.MaxRabi == s.MaxRabi && a.MaxDetuning == s.MaxDetuning && a.MaxSequenceDuration == s.MaxSequenceDuration &&
		a.MaxSlope == s.MaxSlope && a.C6 == s.C6 && a.SupportsLocalDetuning == s.SupportsLocalDetuning &&
		a.Digital == s.Digital && a.ShotRateHz == s.ShotRateHz && a.MaxShotsPerTask == s.MaxShotsPerTask &&
		slices.Equal(a.NativeGates, s.NativeGates)
}

type validKey struct {
	prog *Program
	spec *specIdent
}

var (
	validMu   sync.Mutex
	validMemo = make(map[validKey]error)
	idents    []*specIdent
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
func identLocked(s *DeviceSpec) *specIdent {
	for _, id := range idents {
		if id.describes(s) {
			return id
		}
	}
	if len(idents) >= identLimit {
		idents = nil
	}
	id := &specIdent{spec: *s}
	id.spec.NativeGates = slices.Clone(s.NativeGates)
	idents = append(idents, id)
	return id
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
