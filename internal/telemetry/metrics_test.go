package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("jobs_total", "Total jobs.")
	c.Bind(Labels{"queue": "prod"}).Inc(1)
	c.Bind(Labels{"queue": "prod"}).Inc(2)
	c.Bind(Labels{"queue": "dev"}).Inc(5)
	if got := c.Value(Labels{"queue": "prod"}); got != 3 {
		t.Fatalf("prod = %g", got)
	}
	if got := c.Value(Labels{"queue": "dev"}); got != 5 {
		t.Fatalf("dev = %g", got)
	}
	// Counters reject negative increments.
	c.Bind(Labels{"queue": "prod"}).Inc(-10)
	if got := c.Value(Labels{"queue": "prod"}); got != 3 {
		t.Fatalf("negative inc applied: %g", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.MustGauge("qpu_up", "QPU availability.")
	g.Bind(nil).Set(1)
	if got := g.Value(nil); got != 1 {
		t.Fatalf("got %g", got)
	}
	g.Bind(nil).Set(0.5)
	if got := g.Value(nil); got != 0.5 {
		t.Fatalf("got %g", got)
	}
	// Type mismatch operations are no-ops.
	g.Bind(nil).Inc(5)
	g.Bind(nil).Observe(5)
	if got := g.Value(nil); got != 0.5 {
		t.Fatalf("wrong-type op applied: %g", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("latency_seconds", "Latency.", []float64{0.1, 0.5, 1, 5})
	for i := 0; i < 100; i++ {
		h.Bind(nil).Observe(0.3) // all in (0.1, 0.5]
	}
	if got := h.HistogramCount(nil); got != 100 {
		t.Fatalf("count = %d", got)
	}
	q := h.HistogramQuantile(nil, 0.5)
	if q < 0.1 || q > 0.5 {
		t.Fatalf("median = %g outside owning bucket", q)
	}
	if !math.IsNaN(h.HistogramQuantile(Labels{"x": "missing"}, 0.5)) {
		t.Fatal("missing series quantile not NaN")
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("d", "", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for i := 1; i <= 1000; i++ {
		h.Bind(nil).Observe(float64(i%10) + 0.5)
	}
	p90 := h.HistogramQuantile(nil, 0.9)
	if p90 < 8 || p90 > 10 {
		t.Fatalf("p90 = %g", p90)
	}
	p10 := h.HistogramQuantile(nil, 0.1)
	if p10 > 2 {
		t.Fatalf("p10 = %g", p10)
	}
}

func TestHistogramValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Histogram("h", "", nil); err == nil {
		t.Fatal("empty buckets accepted")
	}
	if _, err := r.Histogram("h", "", []float64{2, 1}); err == nil {
		t.Fatal("descending buckets accepted")
	}
}

func TestRegistryNameValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-name", "ünïcode"} {
		if _, err := r.Counter(bad, ""); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"abc", "a_b_c", "ns:metric", "x9"} {
		if _, err := r.Counter(good, ""); err != nil {
			t.Errorf("name %q rejected", good)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.MustCounter("same", "")
	b := r.MustCounter("same", "")
	if a != b {
		t.Fatal("re-registration returned a different family")
	}
	if _, err := r.Gauge("same", ""); err == nil {
		t.Fatal("type change accepted")
	}
}

func TestExposeFormat(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("qpu_jobs_total", "Jobs executed.")
	c.Bind(Labels{"queue": "prod", "user": "alice"}).Inc(7)
	g := r.MustGauge("qpu_rabi_freq", "Calibrated Rabi frequency.")
	g.Bind(nil).Set(12.57)
	h := r.MustHistogram("qpu_wait_seconds", "Queue wait.", []float64{1, 10})
	h.Bind(nil).Observe(0.5)
	h.Bind(nil).Observe(20)

	out := r.Expose()
	for _, want := range []string{
		"# HELP qpu_jobs_total Jobs executed.",
		"# TYPE qpu_jobs_total counter",
		`qpu_jobs_total{queue="prod",user="alice"} 7`,
		"# TYPE qpu_rabi_freq gauge",
		"qpu_rabi_freq 12.57",
		"# TYPE qpu_wait_seconds histogram",
		`qpu_wait_seconds_bucket{le="1"} 1`,
		`qpu_wait_seconds_bucket{le="10"} 1`,
		`qpu_wait_seconds_bucket{le="+Inf"} 2`,
		"qpu_wait_seconds_sum 20.5",
		"qpu_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestExposeLabelsSorted(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("m", "")
	c.Bind(Labels{"z": "1", "a": "2"}).Inc(1)
	out := r.Expose()
	if !strings.Contains(out, `m{a="2",z="1"} 1`) {
		t.Fatalf("labels not sorted:\n%s", out)
	}
}

// TestExposeAllocs: a scrape rendered into a warm buffer costs a small, fixed
// number of allocations — the same with 10 series beside the golden fixture
// as with 1 000 — so how often an operator scrapes does not set the GC's pace.
func TestExposeAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{10, 1000} {
		reg := exposeFixture()
		g := reg.MustGauge("fx_sized", "A family of n/2 series.")
		h := reg.MustHistogram("fx_sized_seconds", "A histogram of n/2 series.", []float64{0.5, 1, 10})
		for i := 0; i < n/2; i++ {
			l := Labels{"device": "analog-qpu-p" + strconv.Itoa(i)}
			g.Bind(l).Set(float64(i) + 0.5)
			h.Bind(l).Observe(float64(i))
		}
		var buf bytes.Buffer
		reg.WriteText(&buf)
		if buf.String() != reg.Expose() {
			t.Fatal("WriteText and Expose render different text")
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			buf.Reset()
			reg.WriteText(&buf)
		}))
	}
	if allocs[0] > 2 || allocs[1] != allocs[0] {
		t.Fatalf("a warm scrape allocates %.0f times at 10 series and %.0f at 1 000, want the same ≤ 2", allocs[0], allocs[1])
	}
}

// TestRegistrationOrderAndSortedSeries: families registered by four
// producers in turn, each binding its series in descending key order, scrape
// once each, in registration order, their series sorted; a scrape taken
// between two registrations is a prefix of the final one.
func TestRegistrationOrderAndSortedSeries(t *testing.T) {
	const producers, families = 4, 50
	reg := NewRegistry()
	var scrapes []string
	for i := 0; i < families; i++ {
		for w := 0; w < producers; w++ {
			g := reg.MustGauge(fmt.Sprintf("w%d_f%03d", w, i), "")
			for k := 3; k > 0; k-- {
				g.Bind(Labels{"k": strconv.Itoa(k)}).Set(float64(k))
			}
			scrapes = append(scrapes, reg.Expose())
		}
	}

	out := reg.Expose()
	for n, prefix := range scrapes {
		if !strings.HasPrefix(out, prefix) {
			t.Fatalf("scrape after %d registrations is not a prefix of the last:\n%s", n+1, prefix)
		}
	}
	last := -1
	for i := 0; i < families; i++ {
		for w := 0; w < producers; w++ {
			name := fmt.Sprintf("w%d_f%03d", w, i)
			at := strings.Index(out, "# TYPE "+name+" gauge\n"+name+`{k="1"} 1`+"\n"+name+`{k="2"} 2`+"\n"+name+`{k="3"} 3`+"\n")
			if at <= last || strings.Count(out, "# TYPE "+name+" ") != 1 {
				t.Fatalf("family %s missing, repeated, out of order or unsorted:\n%s", name, out)
			}
			last = at
		}
	}
}

// TestBoundCounterCounts: handles bound to one series, each re-bound and
// incremented in turn, lose no increment.
func TestBoundCounterCounts(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("counts", "")
	for i := 0; i < 1000; i++ {
		for w := 0; w < 8; w++ {
			c.Bind(Labels{"w": "x"}).Inc(1)
		}
	}
	if got := c.Value(Labels{"w": "x"}); got != 8000 {
		t.Fatalf("lost updates: %g", got)
	}
}

func TestLabelsKeyCanonical(t *testing.T) {
	a := Labels{"x": "1", "y": "2"}
	b := Labels{"y": "2", "x": "1"}
	if a.key() != b.key() {
		t.Fatal("label key not order-independent")
	}
	if (Labels{}).key() != "" {
		t.Fatal("empty labels key")
	}
}

func TestHistogramSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.MustHistogram("sum_test", "sum accessor", []float64{1, 10})
	labels := Labels{"class": "dev"}
	for _, v := range []float64{0.5, 2, 7.5} {
		h.Bind(labels).Observe(v)
	}
	if got := h.HistogramSum(labels); got != 10 {
		t.Fatalf("HistogramSum = %g, want 10", got)
	}
	if got := h.HistogramSum(Labels{"class": "other"}); got != 0 {
		t.Fatalf("HistogramSum of absent series = %g, want 0", got)
	}
	// Mean derivation: sum/count.
	if mean := h.HistogramSum(labels) / float64(h.HistogramCount(labels)); mean != 10.0/3 {
		t.Fatalf("derived mean = %g", mean)
	}
}
