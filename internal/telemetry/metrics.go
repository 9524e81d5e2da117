// Package telemetry implements the observability stack of the HPC-QC
// environment (paper §3.6): a metrics registry with Prometheus text
// exposition, an in-memory time-series database in the InfluxDB mould
// (retention, downsampling, range queries), calibration-drift detection, and
// alert rules. Using the standard exposition format means a hosting site's
// existing Prometheus/Grafana stack scrapes the QPU like any other node.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType enumerates supported metric kinds.
type MetricType int

const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter MetricType = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram accumulates observations into cumulative buckets.
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Labels is an immutable-by-convention label set.
type Labels map[string]string

// key renders labels canonically (sorted) for map indexing and exposition.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, l[k])
	}
	return sb.String()
}

// series is one labelled time series inside a metric family, stored under
// its labels' canonical rendering.
type series struct {
	value float64
	// histogram state
	buckets []float64 // cumulative counts per bound
	sum     float64
	count   uint64
}

// Metric is a family of labelled series sharing a name, type and help text.
type Metric struct {
	Name   string
	Type   MetricType
	Help   string
	bounds []float64 // histogram bucket upper bounds, ascending

	mu     sync.Mutex
	series map[string]*series
}

func (m *Metric) getSeries(l Labels) *series {
	k := l.key()
	s, ok := m.series[k]
	if !ok {
		s = &series{}
		if m.Type == TypeHistogram {
			s.buckets = make([]float64, len(m.bounds))
		}
		m.series[k] = s
	}
	return s
}

// BoundSeries is a pre-resolved (metric family, label set) pair, and the only
// way to write a series: a producer pays the canonical label-key rendering
// (sort + quote + map lookup) once at Bind time, not on every update. A nil
// BoundSeries is valid and drops all updates, so call sites can bind
// unconditionally even when telemetry is disabled.
type BoundSeries struct {
	m *Metric
	s *series
}

// Bind resolves (and creates, if absent) the series for a label set. A nil
// receiver yields a nil BoundSeries whose update methods no-op.
func (m *Metric) Bind(l Labels) *BoundSeries {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	s := m.getSeries(l)
	m.mu.Unlock()
	return &BoundSeries{m: m, s: s}
}

// Inc adds delta to a bound counter series. Negative deltas are ignored:
// counters are monotone by definition.
func (b *BoundSeries) Inc(delta float64) {
	if b == nil || b.m.Type != TypeCounter || delta < 0 {
		return
	}
	b.m.mu.Lock()
	b.s.value += delta
	b.m.mu.Unlock()
}

// Set assigns a bound gauge series.
func (b *BoundSeries) Set(v float64) {
	if b == nil || b.m.Type != TypeGauge {
		return
	}
	b.m.mu.Lock()
	b.s.value = v
	b.m.mu.Unlock()
}

// Add adds to a bound gauge series.
func (b *BoundSeries) Add(delta float64) {
	if b == nil || b.m.Type != TypeGauge {
		return
	}
	b.m.mu.Lock()
	b.s.value += delta
	b.m.mu.Unlock()
}

// Observe records a histogram observation on a bound series.
func (b *BoundSeries) Observe(v float64) {
	if b == nil || b.m.Type != TypeHistogram {
		return
	}
	b.m.mu.Lock()
	b.s.sum += v
	b.s.count++
	for i, bound := range b.m.bounds {
		if v <= bound {
			b.s.buckets[i]++
		}
	}
	b.m.mu.Unlock()
}

// Value returns the current value of a counter/gauge series (0 if absent).
func (m *Metric) Value(l Labels) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.series[l.key()]; ok {
		return s.value
	}
	return 0
}

// HistogramCount returns the observation count of a histogram series.
func (m *Metric) HistogramCount(l Labels) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.series[l.key()]; ok {
		return s.count
	}
	return 0
}

// HistogramSum returns the running sum of a histogram series' observations,
// so consumers can derive means (sum/count) without re-aggregating samples.
func (m *Metric) HistogramSum(l Labels) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.series[l.key()]; ok {
		return s.sum
	}
	return 0
}

// HistogramQuantile estimates quantile q ∈ [0,1] by linear interpolation
// within the owning bucket, Prometheus-style. Returns NaN with no data.
func (m *Metric) HistogramQuantile(l Labels, q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// Registry holds metric families and renders them in Prometheus text format.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*Metric
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*Metric)}
}

func (r *Registry) register(name, help string, t MetricType, bounds []float64) (*Metric, error) {
	if name == "" || !validMetricName(name) {
		return nil, fmt.Errorf("telemetry: invalid metric name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.metrics[name]; ok {
		if existing.Type != t {
			return nil, fmt.Errorf("telemetry: metric %q re-registered with different type", name)
		}
		return existing, nil
	}
	m := &Metric{Name: name, Type: t, Help: help, bounds: bounds, series: make(map[string]*series)}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m, nil
}

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string) (*Metric, error) {
	return r.register(name, help, TypeCounter, nil)
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string) (*Metric, error) {
	return r.register(name, help, TypeGauge, nil)
}

// Histogram registers (or returns) a histogram family with the given
// ascending bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) (*Metric, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("telemetry: histogram %q needs at least one bucket", name)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("telemetry: histogram %q buckets not ascending", name)
		}
	}
	return r.register(name, help, TypeHistogram, bounds)
}

// MustCounter is Counter, panicking on registration errors; for package-level
// initialization where the name is a compile-time constant.
func (r *Registry) MustCounter(name, help string) *Metric {
	m, err := r.Counter(name, help)
	if err != nil {
		panic(err)
	}
	return m
}

// MustGauge is Gauge, panicking on registration errors.
func (r *Registry) MustGauge(name, help string) *Metric {
	m, err := r.Gauge(name, help)
	if err != nil {
		panic(err)
	}
	return m
}

// MustHistogram is Histogram, panicking on registration errors.
func (r *Registry) MustHistogram(name, help string, bounds []float64) *Metric {
	m, err := r.Histogram(name, help, bounds)
	if err != nil {
		panic(err)
	}
	return m
}

// Get returns a registered metric family, or nil.
func (r *Registry) Get(name string) *Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// Expose renders every family in Prometheus text exposition format 0.0.4. A
// series is stored under its canonical label rendering, so the scrape writes
// that key back out instead of rendering the label set again.
func (r *Registry) Expose() string {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()

	var sb strings.Builder
	for _, name := range names {
		m := r.Get(name)
		if m == nil {
			continue
		}
		fmt.Fprintf(&sb, "# HELP %s %s\n", m.Name, m.Help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", m.Name, m.Type)
		m.mu.Lock()
		keys := make([]string, 0, len(m.series))
		for k := range m.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := m.series[k]
			switch m.Type {
			case TypeHistogram:
				count := strconv.FormatUint(s.count, 10)
				for i, bound := range m.bounds {
					writeSample(&sb, m.Name, "_bucket", k, formatFloat(bound), formatFloat(s.buckets[i]))
				}
				writeSample(&sb, m.Name, "_bucket", k, "+Inf", count)
				writeSample(&sb, m.Name, "_sum", k, "", formatFloat(s.sum))
				writeSample(&sb, m.Name, "_count", k, "", count)
			default:
				writeSample(&sb, m.Name, "", k, "", formatFloat(s.value))
			}
		}
		m.mu.Unlock()
	}
	return sb.String()
}

// writeSample renders one sample line. key is the series' canonical label
// rendering (the string it is stored under); le, when non-empty, is a
// histogram bucket bound appended as the last label. Bounds are formatFloat
// output or "+Inf", which quoting leaves as they are.
func writeSample(sb *strings.Builder, name, suffix, key, le, value string) {
	sb.WriteString(name)
	sb.WriteString(suffix)
	if key != "" || le != "" {
		sb.WriteByte('{')
		sb.WriteString(key)
		if le != "" {
			if key != "" {
				sb.WriteByte(',')
			}
			sb.WriteString(`le="`)
			sb.WriteString(le)
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(value)
	sb.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
