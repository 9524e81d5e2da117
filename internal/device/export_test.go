package device

// TaskIDs lists the IDs in the task table, in submission order.
func (d *Device) TaskIDs() []string {
	var ids []string
	for _, t := range d.tasks.Slots() {
		if t != nil {
			ids = append(ids, t.id)
		}
	}
	return ids
}
