package hybrid

// Workers returns the task's current allocation (0 when not running).
func (p *MalleablePool) Workers(id string) int {
	if t, ok := p.all[id]; ok {
		return t.workers
	}
	return 0
}
