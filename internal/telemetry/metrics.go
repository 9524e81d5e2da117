// Package telemetry implements the observability stack of the HPC-QC
// environment (paper §3.6): a metrics registry with Prometheus text
// exposition, an in-memory time-series database in the InfluxDB mould
// (retention, downsampling, range queries), calibration-drift detection, and
// alert rules. Using the standard exposition format means a hosting site's
// existing Prometheus/Grafana stack scrapes the QPU like any other node.
package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
// key, its labels' canonical rendering.
type series struct {
	key   string
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

	// What a scrape writes the same way every time, rendered at register:
	// the # HELP and # TYPE lines, and each bucket bound as its le label.
	header string
	les    []string

	mu     sync.Mutex
	series map[string]*series
	sorted []*series // by key; a series is never deleted, so a scrape sorts nothing
}

func (m *Metric) getSeries(l Labels) *series {
	k := l.key()
	s, ok := m.series[k]
	if !ok {
		s = &series{key: k}
		if m.Type == TypeHistogram {
			s.buckets = make([]float64, len(m.bounds))
		}
		m.series[k] = s
		i := sort.Search(len(m.sorted), func(i int) bool { return m.sorted[i].key > k })
		m.sorted = slices.Insert(m.sorted, i, s)
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

// Registry holds metric families and renders them in Prometheus text format.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*Metric
	// families is in registration order and only ever appended to, so a
	// scrape may range over the slice it read under mu after letting go.
	families []*Metric
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
	m := &Metric{Name: name, Type: t, Help: help, bounds: bounds, series: make(map[string]*series),
		header: "# HELP " + name + " " + help + "\n# TYPE " + name + " " + t.String() + "\n"}
	for _, b := range bounds {
		m.les = append(m.les, string(appendFloat(nil, b)))
	}
	r.metrics[name] = m
	r.families = append(r.families, m)
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

// Expose renders every family in Prometheus text exposition format 0.0.4, as
// WriteText does.
func (r *Registry) Expose() string {
	var buf bytes.Buffer
	r.WriteText(&buf)
	return buf.String()
}

// WriteText appends every family to buf in Prometheus text exposition format
// 0.0.4. Headers, bucket bounds and the series order were rendered when the
// family or series was made, so into a buffer already grown by an earlier
// scrape this allocates nothing per series.
func (r *Registry) WriteText(buf *bytes.Buffer) {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	for _, m := range families {
		buf.WriteString(m.header)
		m.mu.Lock()
		for _, s := range m.sorted {
			var v, n [32]byte // a rendered value, on the stack
			if m.Type != TypeHistogram {
				writeSample(buf, m.Name, "", s.key, "", appendFloat(v[:0], s.value))
				continue
			}
			count := strconv.AppendUint(n[:0], s.count, 10)
			for i, le := range m.les {
				writeSample(buf, m.Name, "_bucket", s.key, le, appendFloat(v[:0], s.buckets[i]))
			}
			writeSample(buf, m.Name, "_bucket", s.key, "+Inf", count)
			writeSample(buf, m.Name, "_sum", s.key, "", appendFloat(v[:0], s.sum))
			writeSample(buf, m.Name, "_count", s.key, "", count)
		}
		m.mu.Unlock()
	}
}

// writeSample renders one sample line. key is the series' canonical label
// rendering (the string it is stored under); le, when non-empty, is a
// histogram bucket bound appended as the last label. Bounds are appendFloat
// output or "+Inf", which quoting leaves as they are.
func writeSample(buf *bytes.Buffer, name, suffix, key, le string, value []byte) {
	buf.WriteString(name)
	buf.WriteString(suffix)
	if key != "" || le != "" {
		buf.WriteByte('{')
		buf.WriteString(key)
		if le != "" {
			if key != "" {
				buf.WriteByte(',')
			}
			buf.WriteString(`le="`)
			buf.WriteString(le)
			buf.WriteByte('"')
		}
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.Write(value)
	buf.WriteByte('\n')
}

// appendFloat renders a sample value: integral values below 1e15 as
// integers, the rest in the shortest 'g' form that reads back exactly.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
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
