package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestHistogramZeroObservationExposition pins the exposition of a histogram
// series that exists but has never observed: every bucket (including +Inf),
// the sum and the count must render as literal zeros, and the quantile
// estimator must say NaN rather than inventing a value. The daemon creates
// wait-histogram series at Bind time — before the first job completes — so
// the scrape page always crosses this state.
func TestHistogramZeroObservationExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.MustHistogram("edge_wait_seconds", "zero-observation histogram", []float64{1, 10})
	labels := Labels{"class": "production"}
	if b := h.Bind(labels); b == nil {
		t.Fatal("Bind returned nil for a live metric")
	}

	out := reg.Expose()
	for _, want := range []string{
		`edge_wait_seconds_bucket{class="production",le="1"} 0`,
		`edge_wait_seconds_bucket{class="production",le="10"} 0`,
		`edge_wait_seconds_bucket{class="production",le="+Inf"} 0`,
		`edge_wait_seconds_sum{class="production"} 0`,
		`edge_wait_seconds_count{class="production"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if q := h.HistogramQuantile(labels, 0.99); !math.IsNaN(q) {
		t.Errorf("zero-observation quantile = %g, want NaN", q)
	}
	if c := h.HistogramCount(labels); c != 0 {
		t.Errorf("zero-observation count = %d", c)
	}
}

// TestBoundSeriesNilSafety pins the disabled-telemetry contract: binding a
// nil metric family yields a nil BoundSeries, and every update method on it
// is a silent no-op. Call sites in the dispatch hot path bind
// unconditionally and rely on this instead of branching on "is telemetry
// on".
func TestBoundSeriesNilSafety(t *testing.T) {
	var m *Metric
	b := m.Bind(Labels{"class": "dev"})
	if b != nil {
		t.Fatal("nil metric Bind returned a non-nil BoundSeries")
	}
	// None of these may panic.
	b.Inc(1)
	b.Set(2)
	b.Observe(4)

	// A registry with no metric registered yields nil via Get — the same
	// nil-receiver path a daemon without a Registry walks.
	reg := NewRegistry()
	if got := reg.Get("never_registered"); got != nil {
		t.Fatalf("Get on empty registry = %v, want nil", got)
	}
	reg.Get("never_registered").Bind(Labels{"x": "y"}).Observe(1)
}

// TestTSDBRetentionCompactionThreshold walks retention eviction across the
// buffer-compaction boundary (compact when the dead prefix exceeds half the
// buffer) and checks the surviving window is exact on both sides of it. The
// off-by-one worth pinning: at start == len/2 the series must NOT compact
// yet, one more eviction tips it.
func TestTSDBRetentionCompactionThreshold(t *testing.T) {
	const retention = 10 * time.Second
	db := NewTSDB(retention, 0)
	labels := Labels{"device": "qpu-0"}

	at := func(i int) time.Duration { return time.Duration(i) * time.Second }
	for i := 0; i < 32; i++ {
		db.Append("edge_metric", labels, at(i), float64(i))

		s := db.series[seriesKey("edge_metric", labels)]
		if s.start > len(s.points)/2 {
			t.Fatalf("after append %d: dead prefix %d exceeds half of %d points without compacting",
				i, s.start, len(s.points))
		}
		// The live window must always be exactly the retained range,
		// compacted or not.
		cut := at(i) - retention
		want := 0
		for j := 0; j <= i; j++ {
			if at(j) >= cut {
				want++
			}
		}
		got := db.Query("edge_metric", labels, 0, at(i))
		if len(got) != want {
			t.Fatalf("after append %d: %d live points, want %d", i, len(got), want)
		}
		for k, p := range got {
			if wantAt := at(i - want + 1 + k); p.At != wantAt || p.Value != wantAt.Seconds() {
				t.Fatalf("after append %d: point %d = {%s, %g}, want {%s, %g}",
					i, k, p.At, p.Value, wantAt, wantAt.Seconds())
			}
		}
	}

	// The series must actually have compacted at least once over the run —
	// otherwise the loop above never exercised the copy-down path.
	s := db.series[seriesKey("edge_metric", labels)]
	if len(s.points) > 22 {
		t.Fatalf("series buffer never compacted: %d points for an 11-point window", len(s.points))
	}
}
