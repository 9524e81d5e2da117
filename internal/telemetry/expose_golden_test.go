package telemetry

import (
	"strings"
	"testing"
)

// exposeFixture holds gauges, counters and a histogram family at 0, 1 and 2
// labels each, with values and label values that exercise every formatting
// branch: integral and fractional floats, values past the int64-safe range,
// negative gauges, label values that need quoting, a family with no series.
func exposeFixture() *Registry {
	reg := NewRegistry()
	labelSets := []Labels{
		nil,
		{"class": "dev"},
		{"class": "production"},
		{"device": "analog-qpu-p0", "class": "test"},
		{"device": `quo"te\back` + "\nline", "class": "dev"},
	}
	values := []float64{0, 3, 2.5, 1e15, 12345.678}
	g := reg.MustGauge("fx_gauge", "A gauge family.")
	c := reg.MustCounter("fx_total", "A counter family.")
	h := reg.MustHistogram("fx_seconds", "A histogram family.", []float64{0.5, 1, 10})
	for i, l := range labelSets {
		g.Bind(l).Set(-values[i] + 0.25)
		c.Bind(l).Inc(values[i])
		b := h.Bind(l)
		for k := 0; k < i; k++ {
			b.Observe(values[k+1] / 4)
		}
	}
	reg.MustGauge("fx_empty", "Registered, never set.")
	return reg
}

// TestExposeBytes pins the exposition of exposeFixture byte for byte; the
// text below was recorded before Expose reused the stored series keys.
func TestExposeBytes(t *testing.T) {
	got := exposeFixture().Expose()
	if got != exposeGolden {
		g, w := strings.Split(got, "\n"), strings.Split(exposeGolden, "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d:\n got %q\nwant %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(g), len(w))
	}
}

const exposeGolden = `# HELP fx_gauge A gauge family.
# TYPE fx_gauge gauge
fx_gauge 0.25
fx_gauge{class="dev"} -2.75
fx_gauge{class="dev",device="quo\"te\\back\nline"} -12345.428
fx_gauge{class="production"} -2.25
fx_gauge{class="test",device="analog-qpu-p0"} -9.999999999999998e+14
# HELP fx_total A counter family.
# TYPE fx_total counter
fx_total 0
fx_total{class="dev"} 3
fx_total{class="dev",device="quo\"te\\back\nline"} 12345.678
fx_total{class="production"} 2.5
fx_total{class="test",device="analog-qpu-p0"} 1e+15
# HELP fx_seconds A histogram family.
# TYPE fx_seconds histogram
fx_seconds_bucket{le="0.5"} 0
fx_seconds_bucket{le="1"} 0
fx_seconds_bucket{le="10"} 0
fx_seconds_bucket{le="+Inf"} 0
fx_seconds_sum 0
fx_seconds_count 0
fx_seconds_bucket{class="dev",le="0.5"} 0
fx_seconds_bucket{class="dev",le="1"} 1
fx_seconds_bucket{class="dev",le="10"} 1
fx_seconds_bucket{class="dev",le="+Inf"} 1
fx_seconds_sum{class="dev"} 0.75
fx_seconds_count{class="dev"} 1
fx_seconds_bucket{class="dev",device="quo\"te\\back\nline",le="0.5"} 0
fx_seconds_bucket{class="dev",device="quo\"te\\back\nline",le="1"} 2
fx_seconds_bucket{class="dev",device="quo\"te\\back\nline",le="10"} 2
fx_seconds_bucket{class="dev",device="quo\"te\\back\nline",le="+Inf"} 4
fx_seconds_sum{class="dev",device="quo\"te\\back\nline"} 2.5000000000308778e+14
fx_seconds_count{class="dev",device="quo\"te\\back\nline"} 4
fx_seconds_bucket{class="production",le="0.5"} 0
fx_seconds_bucket{class="production",le="1"} 2
fx_seconds_bucket{class="production",le="10"} 2
fx_seconds_bucket{class="production",le="+Inf"} 2
fx_seconds_sum{class="production"} 1.375
fx_seconds_count{class="production"} 2
fx_seconds_bucket{class="test",device="analog-qpu-p0",le="0.5"} 0
fx_seconds_bucket{class="test",device="analog-qpu-p0",le="1"} 2
fx_seconds_bucket{class="test",device="analog-qpu-p0",le="10"} 2
fx_seconds_bucket{class="test",device="analog-qpu-p0",le="+Inf"} 3
fx_seconds_sum{class="test",device="analog-qpu-p0"} 2.5000000000000138e+14
fx_seconds_count{class="test",device="analog-qpu-p0"} 3
# HELP fx_empty Registered, never set.
# TYPE fx_empty gauge
`
