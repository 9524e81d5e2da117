package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestTSDBAppendQuery(t *testing.T) {
	db := NewTSDB(0, 0)
	for i := 0; i < 10; i++ {
		db.Append("temp", Labels{"dev": "qpu1"}, time.Duration(i)*time.Second, float64(i))
	}
	pts := db.Query("temp", Labels{"dev": "qpu1"}, 2*time.Second, 5*time.Second)
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Value != 2 || pts[3].Value != 5 {
		t.Fatalf("range wrong: %v", pts)
	}
	// Unknown series and labels return nil.
	if db.Query("nope", nil, 0, time.Hour) != nil {
		t.Fatal("unknown series returned data")
	}
	if db.Query("temp", Labels{"dev": "other"}, 0, time.Hour) != nil {
		t.Fatal("unknown labels returned data")
	}
}

func TestTSDBLatest(t *testing.T) {
	db := NewTSDB(0, 0)
	if _, ok := db.Latest("x", nil); ok {
		t.Fatal("latest on empty db")
	}
	db.Append("x", nil, time.Second, 1)
	db.Append("x", nil, 3*time.Second, 9)
	p, ok := db.Latest("x", nil)
	if !ok || p.Value != 9 || p.At != 3*time.Second {
		t.Fatalf("latest = %+v ok=%v", p, ok)
	}
}

func TestTSDBOutOfOrderInsert(t *testing.T) {
	db := NewTSDB(0, 0)
	db.Append("x", nil, 5*time.Second, 5)
	db.Append("x", nil, 1*time.Second, 1)
	db.Append("x", nil, 3*time.Second, 3)
	pts := db.Query("x", nil, 0, 10*time.Second)
	if len(pts) != 3 {
		t.Fatalf("got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At < pts[i-1].At {
			t.Fatalf("unordered: %v", pts)
		}
	}
}

func TestTSDBRetention(t *testing.T) {
	db := NewTSDB(10*time.Second, 0)
	for i := 0; i < 30; i++ {
		db.Append("x", nil, time.Duration(i)*time.Second, float64(i))
	}
	pts := db.Query("x", nil, 0, time.Hour)
	if len(pts) == 30 {
		t.Fatal("retention did not evict")
	}
	for _, p := range pts {
		if p.At < 19*time.Second {
			t.Fatalf("stale point survived: %+v", p)
		}
	}
}

func TestTSDBMaxPoints(t *testing.T) {
	db := NewTSDB(0, 5)
	for i := 0; i < 20; i++ {
		db.Append("x", nil, time.Duration(i)*time.Second, float64(i))
	}
	pts := db.Query("x", nil, 0, time.Hour)
	if len(pts) != 5 {
		t.Fatalf("got %d points, want 5", len(pts))
	}
	if pts[0].Value != 15 {
		t.Fatalf("kept wrong points: %v", pts)
	}
}

func TestDownsampleMean(t *testing.T) {
	db := NewTSDB(0, 0)
	// Two samples per 10s window: values (0,1), (2,3), ...
	for i := 0; i < 10; i++ {
		db.Append("x", nil, time.Duration(i*5)*time.Second, float64(i))
	}
	out := db.Downsample("x", nil, 0, 50*time.Second, 10*time.Second, AggMean)
	if len(out) != 5 {
		t.Fatalf("got %d windows", len(out))
	}
	if out[0].Value != 0.5 || out[1].Value != 2.5 {
		t.Fatalf("means wrong: %v", out)
	}
}

func TestDownsampleKinds(t *testing.T) {
	db := NewTSDB(0, 0)
	for i, v := range []float64{3, 1, 4, 1, 5} {
		db.Append("x", nil, time.Duration(i)*time.Second, v)
	}
	window := 10 * time.Second
	if got := db.Downsample("x", nil, 0, window, window, AggMax)[0].Value; got != 5 {
		t.Fatalf("max = %g", got)
	}
	if got := db.Downsample("x", nil, 0, window, window, AggMin)[0].Value; got != 1 {
		t.Fatalf("min = %g", got)
	}
	if got := db.Downsample("x", nil, 0, window, window, AggLast)[0].Value; got != 5 {
		t.Fatalf("last = %g", got)
	}
	if got := db.Downsample("x", nil, 0, window, window, AggCount)[0].Value; got != 5 {
		t.Fatalf("count = %g", got)
	}
}

// TestDownsampleCostFollowsPoints: a 1 ns window over points an hour apart
// answers one point per sample, stamped at the window holding it, without
// stepping through the 3.6e12 empty windows between two samples.
func TestDownsampleCostFollowsPoints(t *testing.T) {
	db := NewTSDB(0, 0)
	for i := 0; i < 4; i++ {
		db.Append("x", nil, time.Duration(i)*time.Hour+time.Duration(i), float64(i))
	}
	out := db.Downsample("x", nil, 3, 4*time.Hour, time.Nanosecond, AggLast)
	if len(out) != 3 {
		t.Fatalf("got %d windows, want 3: %v", len(out), out)
	}
	for k, p := range out {
		i := k + 1
		if want := time.Duration(i)*time.Hour + time.Duration(i); p.At != want || p.Value != float64(i) {
			t.Fatalf("window %d = %v, want {%s %d}", k, p, want, i)
		}
	}
	// Hour windows from 2 ns: the sample at 1h+1 ns falls in the first,
	// 2h+2 ns opens the second, 3h+3 ns lies inside the third.
	out = db.Downsample("x", nil, 2, 4*time.Hour, time.Hour, AggCount)
	if len(out) != 3 || out[0].At != 2 || out[1].At != 2*time.Hour+2 || out[2].At != 3*time.Hour+2 {
		t.Fatalf("hour windows from 2 ns = %v", out)
	}
}

func TestDownsampleZeroWindowPassthrough(t *testing.T) {
	db := NewTSDB(0, 0)
	db.Append("x", nil, time.Second, 1)
	out := db.Downsample("x", nil, 0, time.Hour, 0, AggMean)
	if len(out) != 1 || out[0].Value != 1 {
		t.Fatalf("passthrough = %v", out)
	}
}

func TestDownsampleEmpty(t *testing.T) {
	db := NewTSDB(0, 0)
	if out := db.Downsample("x", nil, 0, time.Hour, time.Second, AggMean); out != nil {
		t.Fatalf("empty downsample = %v", out)
	}
}

func TestRangeStats(t *testing.T) {
	db := NewTSDB(0, 0)
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		db.Append("x", nil, time.Duration(i)*time.Second, v)
	}
	st := db.RangeStats("x", nil, 0, time.Hour)
	if st.Count != 8 || st.Mean != 5 || st.Min != 2 || st.Max != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.StdDev-2) > 1e-9 {
		t.Fatalf("stddev = %g, want 2", st.StdDev)
	}
	if st := db.RangeStats("missing", nil, 0, time.Hour); st.Count != 0 {
		t.Fatalf("missing stats = %+v", st)
	}
}

func TestSeriesNames(t *testing.T) {
	db := NewTSDB(0, 0)
	db.Append("b", nil, 0, 1)
	db.Append("a", Labels{"k": "v"}, 0, 1)
	names := db.SeriesNames()
	if len(names) != 2 || names[0] > names[1] {
		t.Fatalf("names = %v", names)
	}
}

// TestTSDBEvictionAmortized is the regression test for the offset-based
// eviction: steady-state retention must keep Append cheap (no full-buffer
// copy per sample), survive compaction, and keep queries, latest, and
// out-of-order inserts correct while the dead prefix comes and goes.
func TestTSDBEvictionAmortized(t *testing.T) {
	db := NewTSDB(100*time.Second, 0)
	labels := Labels{"k": "v"}

	// Push far enough past the retention window to force several
	// compaction cycles.
	const total = 5000
	for i := 0; i < total; i++ {
		db.Append("m", labels, time.Duration(i)*time.Second, float64(i))
	}
	now := time.Duration(total-1) * time.Second

	// Exactly the retention window survives: samples at 1 s spacing with
	// At >= now-100s inclusive is 101 points.
	pts := db.Query("m", labels, 0, now)
	if len(pts) != 101 {
		t.Fatalf("live points = %d, want 101", len(pts))
	}
	if pts[0].At != now-100*time.Second || pts[len(pts)-1].At != now {
		t.Fatalf("window = [%s, %s], want [%s, %s]", pts[0].At, pts[len(pts)-1].At, now-100*time.Second, now)
	}
	for i, p := range pts {
		if p.Value != float64(total-101+i) {
			t.Fatalf("pts[%d] = %v after compactions", i, p)
		}
	}
	if last, ok := db.Latest("m", labels); !ok || last.Value != float64(total-1) {
		t.Fatalf("latest = %v, %v", last, ok)
	}

	// Out-of-order insert into a series with a non-zero eviction offset
	// lands in sorted position.
	db.Append("m", labels, now-50*time.Second+time.Millisecond, -1)
	pts = db.Query("m", labels, now-50*time.Second, now-49*time.Second)
	if len(pts) != 3 || pts[1].Value != -1 {
		t.Fatalf("out-of-order insert misplaced: %v", pts)
	}
}

// TestTSDBAppendThroughput guards against the quadratic eviction returning:
// a million appends through a small retention window must finish quickly —
// under the old copy-per-append behaviour this takes minutes, not seconds.
func TestTSDBAppendThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput guard")
	}
	db := NewTSDB(time.Hour, 0)
	labels := Labels{"device": "qpu"}
	start := time.Now()
	const n = 1_000_000
	for i := 0; i < n; i++ {
		db.Append("m", labels, time.Duration(i)*time.Second, float64(i))
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("1M appends took %s — eviction is quadratic again", elapsed)
	}
	if pts := db.Query("m", labels, 0, time.Duration(n)*time.Second); len(pts) != 3601 {
		t.Fatalf("live points = %d, want 3601 (inclusive hour window)", len(pts))
	}
}
