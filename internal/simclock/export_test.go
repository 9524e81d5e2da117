package simclock

// Pending returns the number of queued events.
func (c *Clock) Pending() int {
	return len(c.events) + c.deferred
}
