package simclock

// Pending returns the number of queued events.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events) + c.deferred
}
