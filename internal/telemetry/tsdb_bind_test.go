package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// diffSeries are the series the differential workload writes: one name with
// and without labels, and one name under two label sets.
var diffSeries = []struct {
	name   string
	labels Labels
}{
	{"a", nil},
	{"a", Labels{"k": "v"}},
	{"b", Labels{"device": "p0", "class": "dev"}},
	{"b", Labels{"device": "p1", "class": "dev"}},
}

type diffOp struct {
	series int
	at     time.Duration
	value  float64
}

// diffWorkload is a seeded sample sequence on a shared clock, alternating
// dense stretches (tens of samples a second: maxPoints evicts) with sparse
// ones and the odd jump (retention evicts, sometimes many points at once);
// about one sample in eight arrives out of order by up to 20 s.
func diffWorkload(seed int64, n int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, n)
	now := time.Duration(0)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r >= 97:
			now += time.Duration(30+rng.Intn(60)) * time.Second
		case i/300%2 == 0:
			now += time.Duration(rng.Intn(50)) * time.Millisecond
		default:
			now += time.Duration(1+rng.Intn(8)) * time.Second
		}
		at := now
		if rng.Intn(8) == 0 {
			at -= time.Duration(rng.Intn(20000)) * time.Millisecond
		}
		// Series 3 starts late, so an early checkpoint sees it bound on one
		// side and absent on the other.
		s := rng.Intn(len(diffSeries))
		if s == 3 && i < n/4 {
			s = 2
		}
		ops[i] = diffOp{series: s, at: at, value: rng.NormFloat64()}
	}
	return ops
}

// dumpTSDB renders everything the read API says about diffSeries.
func dumpTSDB(db *TSDB, now time.Duration) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "names %q\n", db.SeriesNames())
	for _, s := range diffSeries {
		fmt.Fprintf(&sb, "%s %v\n", s.name, s.labels)
		fmt.Fprintf(&sb, " all    %v\n", db.Query(s.name, s.labels, -time.Hour, now+time.Hour))
		fmt.Fprintf(&sb, " recent %v\n", db.Query(s.name, s.labels, now-10*time.Second, now))
		p, ok := db.Latest(s.name, s.labels)
		fmt.Fprintf(&sb, " latest %v %v\n", p, ok)
		for _, kind := range []AggregateKind{AggMean, AggMax, AggMin, AggLast, AggCount} {
			fmt.Fprintf(&sb, " down%d  %v\n", kind, db.Downsample(s.name, s.labels, now-time.Minute, now, 7*time.Second, kind))
		}
		fmt.Fprintf(&sb, " stats  %+v\n", db.RangeStats(s.name, s.labels, now-30*time.Second, now))
	}
	return sb.String()
}

// TestTSDBBoundMatchesByName: the same sample sequence appended by name into
// one database and through bound handles into another reads identically at
// every checkpoint, with retention and maxPoints eviction both active. The
// by-name side is additionally held to a digest recorded before Bind
// existed, so the two cannot drift together.
func TestTSDBBoundMatchesByName(t *testing.T) {
	const retention, maxPoints = 40 * time.Second, 25
	byName, bound := NewTSDB(retention, maxPoints), NewTSDB(retention, maxPoints)
	handles := make([]*TSDBSeries, len(diffSeries))
	for i, s := range diffSeries {
		handles[i] = bound.Bind(s.name, s.labels)
	}
	sum := sha256.New()
	ops := diffWorkload(7, 6000)
	var sawCap, sawRetention bool
	for i, op := range ops {
		s := diffSeries[op.series]
		byName.Append(s.name, s.labels, op.at, op.value)
		handles[op.series].Append(op.at, op.value)
		if i%97 == 0 || i == len(ops)-1 {
			want, got := dumpTSDB(byName, op.at), dumpTSDB(bound, op.at)
			if want != got {
				t.Fatalf("after %d samples:\nby name\n%s\nbound\n%s", i+1, want, got)
			}
			sum.Write([]byte(want))
			// A series at the cap only shrinks again by retention eviction.
			n := len(byName.Query("a", nil, -time.Hour, op.at+time.Hour))
			sawCap = sawCap || n == maxPoints
			sawRetention = sawRetention || (sawCap && n < maxPoints)
		}
	}
	if !sawCap || !sawRetention {
		t.Fatalf("workload left an eviction rule idle: maxPoints bit %v, retention bit %v", sawCap, sawRetention)
	}
	const recorded = "bb42035f5ed1166fb1725841c7df57914921dd714587516cb791dfe733ea3a93"
	if got := hex.EncodeToString(sum.Sum(nil)); got != recorded {
		t.Fatalf("by-name reads digest %s, recorded %s", got, recorded)
	}
}

// TestTSDBBindSharesSeries: handles bound twice to one label set, and by-name
// appends to it, all write the same series.
func TestTSDBBindSharesSeries(t *testing.T) {
	db := NewTSDB(0, 0)
	a := db.Bind("x", Labels{"k": "v", "j": "w"})
	b := db.Bind("x", Labels{"j": "w", "k": "v"})
	a.Append(time.Second, 1)
	b.Append(2*time.Second, 2)
	db.Append("x", Labels{"k": "v", "j": "w"}, 3*time.Second, 3)
	if pts := db.Query("x", Labels{"k": "v", "j": "w"}, 0, time.Hour); len(pts) != 3 || pts[2].Value != 3 {
		t.Fatalf("points = %v", pts)
	}
	if names := db.SeriesNames(); len(names) != 1 {
		t.Fatalf("series = %v", names)
	}
}

// TestTSDBSeriesNilSafety pins the disabled-TSDB contract: binding on a nil
// database yields a nil handle whose Append is a no-op, and a series bound
// but never written is invisible to the read side.
func TestTSDBSeriesNilSafety(t *testing.T) {
	var db *TSDB
	h := db.Bind("x", Labels{"k": "v"})
	if h != nil {
		t.Fatalf("nil TSDB bound to %v, want nil", h)
	}
	h.Append(time.Second, 1)

	live := NewTSDB(0, 0)
	live.Bind("x", Labels{"k": "v"})
	if names := live.SeriesNames(); len(names) != 0 {
		t.Fatalf("bound-only series listed: %v", names)
	}
	if pts := live.Query("x", Labels{"k": "v"}, 0, time.Hour); pts != nil {
		t.Fatalf("bound-only series answers %v, want nil", pts)
	}
	if _, ok := live.Latest("x", Labels{"k": "v"}); ok {
		t.Fatal("bound-only series has a latest sample")
	}
}

// TestTSDBBoundAppendAllocs: once the retention window is full, a bound
// append allocates nothing — no key, no map, no buffer growth.
func TestTSDBBoundAppendAllocs(t *testing.T) {
	db := NewTSDB(time.Minute, 0)
	h := db.Bind("qpu_queue_length", Labels{"device": "analog-qpu-p0"})
	at := time.Duration(0)
	step := func() {
		at += time.Second
		h.Append(at, float64(at))
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("warm bound Append allocates %v times per sample", allocs)
	}
}

// TestTSDBInterleavedBoundAppends takes four producers in turn through bound
// appends on shared and distinct series, beside Bind, by-name Append, Query,
// SeriesNames and a registry scrape: no sample is lost, and each series stays
// in time order.
func TestTSDBInterleavedBoundAppends(t *testing.T) {
	const producers, perProducer = 4, 500
	db := NewTSDB(time.Minute, 0)
	reg := NewRegistry()
	g := reg.MustGauge("shared_gauge", "")
	shared := db.Bind("shared", nil)
	var own []Labels
	var mine []*TSDBSeries
	var bound []*BoundSeries
	for w := 0; w < producers; w++ {
		own = append(own, Labels{"producer": fmt.Sprint(w)})
		mine = append(mine, db.Bind("own", own[w]))
		bound = append(bound, g.Bind(own[w]))
	}
	for i := 0; i < perProducer; i++ {
		at := time.Duration(i) * time.Millisecond
		for w := 0; w < producers; w++ {
			shared.Append(at, float64(w))
			mine[w].Append(at, float64(i))
			bound[w].Set(float64(i))
			if i%50 == 0 {
				db.Bind("shared", nil).Append(at, -1)
				db.Append("own", own[w], at, -1)
			}
		}
		db.Query("shared", nil, 0, time.Hour)
		db.Latest("own", own[0])
		db.SeriesNames()
		reg.Expose()
	}

	extra := (perProducer + 49) / 50
	if n := len(db.Query("shared", nil, 0, time.Hour)); n != producers*(perProducer+extra) {
		t.Fatalf("shared series holds %d points, want %d", n, producers*(perProducer+extra))
	}
	for w := 0; w < producers; w++ {
		pts := db.Query("own", own[w], 0, time.Hour)
		if len(pts) != perProducer+extra {
			t.Fatalf("producer %d series holds %d points, want %d", w, len(pts), perProducer+extra)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].At < pts[i-1].At {
				t.Fatalf("producer %d series unordered at %d", w, i)
			}
		}
	}
	if got := len(db.SeriesNames()); got != producers+1 {
		t.Fatalf("%d series, want %d", got, producers+1)
	}
}
