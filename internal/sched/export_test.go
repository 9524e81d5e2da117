package sched

// Snapshot lists queued IDs in Pop order.
func (q *ClassQueue) Snapshot() []string {
	var out []string
	for c := ClassProduction; c >= ClassDev; c-- {
		for _, it := range q.classes[c].items[q.classes[c].head:] {
			if !it.removed {
				out = append(out, it.ID)
			}
		}
	}
	return out
}
