package mint

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestRingMatchesMap drives a ring and a map side by side through random
// mints and drops — oldest first, newest first and anywhere between — and
// after every step every number minted resolves the same on both, and the
// backing slice is under twice the span from the oldest record kept to the
// newest (empty when nothing is kept): the dropped prefix never outgrows
// what is kept.
func TestRingMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Ring[int]
	ref := map[int]*int{}
	minted, oldest := 0, 1
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(ref) == 0:
			v := step
			n := r.Push(&v)
			if minted++; n != minted {
				t.Fatalf("step %d: push numbered %d, want %d", step, n, minted)
			}
			ref[n] = &v
		case k == 9: // the oldest kept record, as a finish ring pops it
			x := r.Pop()
			if x != ref[oldest] {
				t.Fatalf("step %d: pop = %v, want record %d", step, x, oldest)
			}
			delete(ref, oldest)
		default:
			n := minted - rng.Intn(min(minted, 64))
			r.Drop(n)
			delete(ref, n)
		}
		for oldest <= minted && ref[oldest] == nil {
			oldest++
		}
		if span := minted - oldest + 1; len(r.recs) >= max(2*span, 1) {
			t.Fatalf("step %d: %d slots for a span of %d records", step, len(r.recs), span)
		}
		if slots := r.Slots(); r.Len() != len(slots) || len(slots) > 0 && slots[0] != ref[oldest] {
			t.Fatalf("step %d: %d slots, Len %d; the oldest record kept is %d", step, len(slots), r.Len(), oldest)
		}
		for n := max(1, minted-80); n <= minted+1; n++ {
			if got, want := r.At(n), ref[n]; got != want {
				t.Fatalf("step %d: At(%d) = %v, want %v", step, n, got, want)
			}
		}
	}
	if r.At(0) != nil || r.At(-1) != nil {
		t.Fatal("a number never minted resolved")
	}
}

// TestNumberReadsOnlySpell: Number inverts Spell and reads every other
// spelling — signs, leading zeros, spaces, non-ASCII digits, another prefix,
// past the int64 limit — as 0, the number no table mints.
func TestNumberReadsOnlySpell(t *testing.T) {
	for _, n := range []int{1, 7, 10, 99, 1 << 40} {
		if id := Spell(JobPrefix, n); id != "job-"+strconv.Itoa(n) || Number(JobPrefix, id) != n {
			t.Fatalf("Spell(%d) = %q, Number of it = %d", n, id, Number(JobPrefix, id))
		}
	}
	for _, id := range []string{"", "job-", "job-0", "job-00", "job-07", "job-+7", "job--7", "job- 7", "job-7 ",
		"job-７", "job-٣", "job-1e1", "job-0x1", "JOB-7", "qpu-task-7", "job-9223372036854775808",
		"job-18446744073709551617"} {
		if n := Number(JobPrefix, id); n != 0 {
			t.Fatalf("Number(%q) = %d, want 0", id, n)
		}
	}
}
