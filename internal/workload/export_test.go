package workload

import "time"

// TotalClassical returns the pattern's summed nominal classical time.
func (s PatternSpec) TotalClassical() time.Duration {
	return time.Duration(s.QuantumSegments) * s.ClassicalSeg
}
