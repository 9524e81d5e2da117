package sched

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestQueuePopOrderProperty: for any push sequence, Pop returns items in
// (class desc, FIFO within class) order.
func TestQueuePopOrderProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		q := NewClassQueue()
		seq := make(map[Class][]string)
		for i, c := range classes {
			class := Class(int(c) % 3)
			id := fmt.Sprintf("item-%d", i)
			if err := q.Push(&Item{ID: id, Class: class}); err != nil {
				return false
			}
			seq[class] = append(seq[class], id)
		}
		for c := ClassProduction; c >= ClassDev; c-- {
			for _, want := range seq[c] {
				it := q.Pop()
				if it == nil || it.ID != want || it.Class != c {
					return false
				}
			}
		}
		return q.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueLenInvariantProperty: Len equals pushes minus pops minus removes.
func TestQueueLenInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewClassQueue()
		expected := 0
		pushed := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				pushed++
				q.Push(&Item{ID: fmt.Sprintf("i%d", pushed), Class: Class(int(op) % 3)})
				expected++
			case 1:
				if q.Pop() != nil {
					expected--
				}
			case 2:
				if q.Remove(fmt.Sprintf("i%d", pushed)) {
					expected--
				}
			}
			if q.Len() != expected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
