package telemetry

import (
	"math"
	"time"
)

// Value returns the current value of a counter/gauge series (0 if absent).
func (m *Metric) Value(l Labels) float64 {
	if s, ok := m.series[l.key()]; ok {
		return s.value
	}
	return 0
}

// HistogramCount returns the observation count of a histogram series.
func (m *Metric) HistogramCount(l Labels) uint64 {
	if s, ok := m.series[l.key()]; ok {
		return s.count
	}
	return 0
}

// HistogramSum returns the running sum of a histogram series' observations,
// so consumers can derive means (sum/count) without re-aggregating samples.
func (m *Metric) HistogramSum(l Labels) float64 {
	if s, ok := m.series[l.key()]; ok {
		return s.sum
	}
	return 0
}

// HistogramQuantile estimates quantile q ∈ [0,1] by linear interpolation
// within the owning bucket, Prometheus-style. Returns NaN with no data.
func (m *Metric) HistogramQuantile(l Labels, q float64) float64 {
	s, ok := m.series[l.key()]
	if !ok || s.count == 0 {
		return math.NaN()
	}
	target := q * float64(s.count)
	prevBound, prevCount := 0.0, 0.0
	for i, bound := range m.bounds {
		if s.buckets[i] >= target {
			width := bound - prevBound
			inBucket := s.buckets[i] - prevCount
			if inBucket == 0 {
				return bound
			}
			return prevBound + width*(target-prevCount)/inBucket
		}
		prevBound, prevCount = bound, s.buckets[i]
	}
	if len(m.bounds) > 0 {
		return m.bounds[len(m.bounds)-1]
	}
	return math.NaN()
}

// Get returns a registered metric family, or nil.
func (r *Registry) Get(name string) *Metric {
	return r.metrics[name]
}

// Stats summarizes a range: count, mean, min, max, stddev.
type Stats struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// RangeStats computes summary statistics over [from, to].
func (db *TSDB) RangeStats(name string, labels Labels, from, to time.Duration) Stats {
	pts := db.Query(name, labels, from, to)
	if len(pts) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(pts), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, p := range pts {
		sum += p.Value
		sumSq += p.Value * p.Value
		if p.Value < st.Min {
			st.Min = p.Value
		}
		if p.Value > st.Max {
			st.Max = p.Value
		}
	}
	st.Mean = sum / float64(st.Count)
	variance := sumSq/float64(st.Count) - st.Mean*st.Mean
	if variance > 0 {
		st.StdDev = math.Sqrt(variance)
	}
	return st
}
