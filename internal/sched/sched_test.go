package sched

import (
	"fmt"
	"testing"
	"time"
)

func TestClassQueueOrdering(t *testing.T) {
	q := NewClassQueue()
	q.Push(&Item{ID: "dev1", Class: ClassDev})
	q.Push(&Item{ID: "prod1", Class: ClassProduction})
	q.Push(&Item{ID: "test1", Class: ClassTest})
	q.Push(&Item{ID: "prod2", Class: ClassProduction})
	want := []string{"prod1", "prod2", "test1", "dev1"}
	got := q.Snapshot()
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("snapshot = %v, want %v", got, want)
		}
	}
	for _, w := range want {
		if it := q.Pop(); it.ID != w {
			t.Fatalf("pop = %s, want %s", it.ID, w)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop on empty queue")
	}
}

func TestClassQueuePeekRemoveLen(t *testing.T) {
	q := NewClassQueue()
	q.Push(&Item{ID: "a", Class: ClassDev})
	q.Push(&Item{ID: "b", Class: ClassTest})
	if q.Peek().ID != "b" || q.Len() != 2 {
		t.Fatalf("peek/len wrong")
	}
	if !q.Remove("a") {
		t.Fatal("remove failed")
	}
	if q.Remove("a") {
		t.Fatal("double remove succeeded")
	}
	if q.Len() != 1 || q.LenClass(ClassTest) != 1 || q.LenClass(ClassDev) != 0 {
		t.Fatal("len after remove")
	}
	if q.LenClass(Class(9)) != 0 {
		t.Fatal("invalid class len")
	}
}

func TestClassQueueValidation(t *testing.T) {
	q := NewClassQueue()
	if err := q.Push(nil); err == nil {
		t.Fatal("nil item accepted")
	}
	if err := q.Push(&Item{ID: ""}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := q.Push(&Item{ID: "x", Class: Class(7)}); err == nil {
		t.Fatal("invalid class accepted")
	}
}

func TestClassFromSlurmPriority(t *testing.T) {
	if ClassFromSlurmPriority(100) != ClassProduction ||
		ClassFromSlurmPriority(150) != ClassProduction ||
		ClassFromSlurmPriority(50) != ClassTest ||
		ClassFromSlurmPriority(99) != ClassTest ||
		ClassFromSlurmPriority(10) != ClassDev ||
		ClassFromSlurmPriority(0) != ClassDev {
		t.Fatal("priority mapping broken")
	}
}

func TestShouldPreempt(t *testing.T) {
	if !ShouldPreempt(ClassProduction, ClassDev) || !ShouldPreempt(ClassProduction, ClassTest) {
		t.Fatal("production must preempt lower classes")
	}
	if ShouldPreempt(ClassProduction, ClassProduction) {
		t.Fatal("production preempted a peer")
	}
	if ShouldPreempt(ClassTest, ClassDev) || ShouldPreempt(ClassDev, ClassDev) {
		t.Fatal("non-production preempted")
	}
}

func TestClassStrings(t *testing.T) {
	if ClassProduction.String() != "production" || ClassDev.String() != "dev" || ClassTest.String() != "test" {
		t.Fatal("class strings")
	}
}

func TestParsePattern(t *testing.T) {
	for _, ok := range []string{"qc-heavy", "cc-heavy", "qc-balanced", ""} {
		if _, err := ParsePattern(ok); err != nil {
			t.Errorf("%q rejected", ok)
		}
	}
	if _, err := ParsePattern("weird"); err == nil {
		t.Fatal("bad hint accepted")
	}
}

func TestPopByFairSelection(t *testing.T) {
	q := NewClassQueue()
	usage := map[string]float64{"alice": 100, "bob": 5}
	q.Push(&Item{ID: "a1", Class: ClassDev, Enqueued: 1, Payload: "alice"})
	q.Push(&Item{ID: "b1", Class: ClassDev, Enqueued: 2, Payload: "bob"})
	less := func(x, y *Item) bool {
		ux, uy := usage[x.Payload.(string)], usage[y.Payload.(string)]
		if ux != uy {
			return ux < uy
		}
		return x.Enqueued < y.Enqueued
	}
	// Bob has less usage: his job pops first despite arriving later.
	if it := q.PopBy(less); it.ID != "b1" {
		t.Fatalf("popped %s, want b1", it.ID)
	}
	// Class priority still dominates fairness: a production job from the
	// heavy user beats a dev job from the light user.
	q.Push(&Item{ID: "a2", Class: ClassProduction, Enqueued: 3, Payload: "alice"})
	q.Push(&Item{ID: "b2", Class: ClassDev, Enqueued: 4, Payload: "bob"})
	if it := q.PopBy(less); it.ID != "a2" {
		t.Fatalf("popped %s, want a2 (class beats fairness)", it.ID)
	}
	// Nil comparator falls back to plain Pop.
	if it := q.PopBy(nil); it.ID != "a1" {
		t.Fatalf("popped %s, want a1", it.ID)
	}
	if q.PopBy(less).ID != "b2" {
		t.Fatal("remaining item wrong")
	}
	if q.PopBy(less) != nil {
		t.Fatal("empty queue returned an item")
	}
}

func TestPopByStableOnTies(t *testing.T) {
	q := NewClassQueue()
	for i := 0; i < 5; i++ {
		q.Push(&Item{ID: fmt.Sprintf("i%d", i), Class: ClassTest, Enqueued: time.Duration(i)})
	}
	less := func(x, y *Item) bool { return x.Enqueued < y.Enqueued }
	for i := 0; i < 5; i++ {
		if it := q.PopBy(less); it.ID != fmt.Sprintf("i%d", i) {
			t.Fatalf("tie order broken at %d: %s", i, it.ID)
		}
	}
}
