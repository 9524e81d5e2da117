package telemetry

import (
	"testing"
	"testing/quick"
	"time"
)

// TestTSDBOrderingProperty: regardless of insertion order, queries return
// points sorted by timestamp and Latest returns the maximum timestamp.
func TestTSDBOrderingProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		db := NewTSDB(0, 0)
		var maxAt time.Duration
		for i, s := range stamps {
			at := time.Duration(s) * time.Millisecond
			db.Append("x", nil, at, float64(i))
			if at >= maxAt {
				maxAt = at
			}
		}
		pts := db.Query("x", nil, 0, time.Hour)
		if len(pts) != len(stamps) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].At < pts[i-1].At {
				return false
			}
		}
		last, ok := db.Latest("x", nil)
		return ok && last.At == maxAt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTSDBRangeSubsetProperty: a sub-range query returns a subset of the
// full-range query, and every point is inside the requested window.
func TestTSDBRangeSubsetProperty(t *testing.T) {
	f := func(stamps []uint16, loRaw, hiRaw uint16) bool {
		db := NewTSDB(0, 0)
		for i, s := range stamps {
			db.Append("x", nil, time.Duration(s)*time.Millisecond, float64(i))
		}
		lo := time.Duration(loRaw) * time.Millisecond
		hi := time.Duration(hiRaw) * time.Millisecond
		if lo > hi {
			lo, hi = hi, lo
		}
		sub := db.Query("x", nil, lo, hi)
		all := db.Query("x", nil, 0, time.Hour)
		if len(sub) > len(all) {
			return false
		}
		for _, p := range sub {
			if p.At < lo || p.At > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDownsampleWeightProperty: AggCount windows sum to the total number of
// in-range points for any sample set.
func TestDownsampleWeightProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		db := NewTSDB(0, 0)
		for i, s := range stamps {
			db.Append("x", nil, time.Duration(s)*time.Millisecond, float64(i))
		}
		windows := db.Downsample("x", nil, 0, 66*time.Second, time.Second, AggCount)
		var total float64
		for _, w := range windows {
			total += w.Value
		}
		return int(total) == len(db.Query("x", nil, 0, 66*time.Second))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramQuantileMonotoneProperty: quantiles are monotone in q.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint8) bool {
		if len(samples) == 0 {
			return true
		}
		r := NewRegistry()
		h := r.MustHistogram("h", "", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		for _, s := range samples {
			h.Bind(nil).Observe(float64(s))
		}
		prev := -1.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			v := h.HistogramQuantile(nil, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDriftDetectorScaleInvarianceProperty: the detector's state depends on
// relative deviation, so scaling the whole signal leaves it unchanged.
func TestDriftDetectorScaleInvarianceProperty(t *testing.T) {
	f := func(scaleRaw uint8, step uint8) bool {
		scale := float64(scaleRaw%100) + 1
		stepFrac := float64(step%30) / 100 // 0–29% step
		run := func(s float64) DriftState {
			d := NewDriftDetector()
			for i := 0; i < 150; i++ {
				d.Observe(10 * s)
			}
			var st DriftState
			for i := 0; i < 30; i++ {
				st = d.Observe(10 * s * (1 + stepFrac))
			}
			return st
		}
		return run(1) == run(scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
