// Package mint is the one retention rule and the one ID spelling behind every
// table of minted records: the daemon's job table and finish rings, each
// device's task table, an emulator resource's task table and the flight
// recorder's traces (DESIGN §5 INV-R1).
//
// A record's identity is the integer its table minted, counting from 1. The
// string a client sees is spelled from it once, at mint (Spell), and read
// back where an ID comes in (Number), so a table is indexed by the number and
// never keyed by the text.
package mint

import (
	"strconv"
	"strings"
)

// JobPrefix is what a daemon job ID spells before its number: job-1, job-2, …
const JobPrefix = "job-"

// Spell is the ID of record n: prefix and n in decimal, in one allocation.
func Spell(prefix string, n int) string {
	var b [32]byte // built on the stack: the string is the one allocation
	return string(strconv.AppendInt(append(b[:0], prefix...), int64(n), 10))
}

// Number reads the number out of an ID Spell made, and 0 — which no table
// mints — out of anything else. Each number has one spelling, with neither
// sign nor leading zero, so "job-07" and "job-+7" are not job 7.
func Number(prefix, id string) int {
	digits, ok := strings.CutPrefix(id, prefix)
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || n <= 0 || digits[0] == '+' || digits[0] == '0' {
		return 0
	}
	return n
}

// Ring is a table of records in the order they were minted: the zero Ring
// numbers its first record 1, and recs[i] is the record numbered base+i, or
// nil once dropped. The dropped prefix goes once it is half the slice, so the
// backing array is under twice the span from the oldest record kept to the
// newest; a record kept holds one 8-byte slot open per record minted after
// it. A ring only ever dropped from its oldest end (Pop) is a FIFO.
type Ring[T any] struct {
	recs []*T
	base int // the number of recs[0]; 0 until the first Push
	head int // recs[:head] are dropped
}

// Len is the number of slots from the oldest record kept to the newest; on a
// ring only ever dropped from its oldest end, the records it holds.
func (r *Ring[T]) Len() int { return len(r.recs) - r.head }

// Push appends x and returns its number.
func (r *Ring[T]) Push(x *T) int {
	if r.base == 0 {
		r.base = 1
	}
	r.recs = append(r.recs, x)
	return r.base + len(r.recs) - 1
}

// At returns the record numbered n, nil if dropped or never minted.
func (r *Ring[T]) At(n int) *T {
	if i := n - r.base; i >= r.head && i < len(r.recs) {
		return r.recs[i]
	}
	return nil
}

// Drop releases the record numbered n.
func (r *Ring[T]) Drop(n int) {
	i := n - r.base
	if i < r.head || i >= len(r.recs) {
		return
	}
	r.recs[i] = nil
	for r.head < len(r.recs) && r.recs[r.head] == nil {
		r.head++
	}
	if 2*r.head >= len(r.recs) {
		k := copy(r.recs, r.recs[r.head:])
		clear(r.recs[k:])
		r.recs, r.base, r.head = r.recs[:k], r.base+r.head, 0
	}
}

// Pop removes and returns the oldest record.
func (r *Ring[T]) Pop() *T {
	x := r.recs[r.head]
	r.Drop(r.base + r.head)
	return x
}

// Slots returns the slots from the oldest record kept to the newest, in mint
// order, nil where a record was dropped. The slice is the ring's own: read it
// before the next Push or Drop.
func (r *Ring[T]) Slots() []*T { return r.recs[r.head:] }
