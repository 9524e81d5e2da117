package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Point is one timestamped sample.
type Point struct {
	At    time.Duration `json:"at"`
	Value float64       `json:"value"`
}

// tsSeries is an append-mostly ordered sample buffer. Live samples are
// points[start:]; eviction advances start and compacts only when the dead
// prefix dominates the buffer, so steady-state retention eviction costs
// amortized O(1) per append instead of one full copy per sample.
type tsSeries struct {
	name   string
	labels Labels
	points []Point
	start  int
}

// live returns the non-evicted samples.
func (s *tsSeries) live() []Point { return s.points[s.start:] }

// TSDB is an in-memory time-series database with per-database retention and
// on-demand downsampling — the InfluxDB stand-in behind the observability
// stack. Timestamps are simulation-time offsets so the device model and the
// experiments share one time base.
type TSDB struct {
	mu        sync.Mutex
	series    map[string]*tsSeries
	retention time.Duration
	maxPoints int
}

// NewTSDB returns a database keeping up to retention of history per series
// (0 disables age-based eviction) and at most maxPoints samples per series
// (0 defaults to 100000).
func NewTSDB(retention time.Duration, maxPoints int) *TSDB {
	if maxPoints <= 0 {
		maxPoints = 100000
	}
	return &TSDB{series: make(map[string]*tsSeries), retention: retention, maxPoints: maxPoints}
}

func seriesKey(name string, labels Labels) string {
	return name + "|" + labels.key()
}

// seriesLocked is the by-name lookup: it renders the label set to find the
// series, creating it on first use. Caller holds db.mu.
func (db *TSDB) seriesLocked(name string, labels Labels) *tsSeries {
	key := seriesKey(name, labels)
	s, ok := db.series[key]
	if !ok {
		copied := make(Labels, len(labels))
		for k, v := range labels {
			copied[k] = v
		}
		s = &tsSeries{name: name, labels: copied}
		db.series[key] = s
	}
	return s
}

// Append stores a sample. Out-of-order samples are inserted in place, which
// happens when multiple producers share the database. A producer that writes
// the same series again and again should Bind it once instead.
func (db *TSDB) Append(name string, labels Labels, at time.Duration, value float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.appendLocked(db.seriesLocked(name, labels), at, value)
}

// TSDBSeries is a pre-resolved (database, series) pair — the TSDB's
// counterpart of BoundSeries. A producer that samples the same series on
// every submit, dispatch and settle pays the label-set rendering once, at
// Bind, and nothing but the lock and the slice append per sample. A nil
// TSDBSeries is valid and drops all samples, so call sites can bind
// unconditionally even when no database is configured.
type TSDBSeries struct {
	db *TSDB
	s  *tsSeries
}

// Bind resolves (and creates, if absent) the series for a name and label
// set. A nil receiver yields a nil TSDBSeries whose Append no-ops.
func (db *TSDB) Bind(name string, labels Labels) *TSDBSeries {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return &TSDBSeries{db: db, s: db.seriesLocked(name, labels)}
}

// Append stores a sample on a bound series, exactly as TSDB.Append would.
func (b *TSDBSeries) Append(at time.Duration, value float64) {
	if b == nil {
		return
	}
	b.db.mu.Lock()
	b.db.appendLocked(b.s, at, value)
	b.db.mu.Unlock()
}

// appendLocked is the one write path: insert in time order, then evict.
func (db *TSDB) appendLocked(s *tsSeries, at time.Duration, value float64) {
	if live := s.live(); len(live) > 0 && live[len(live)-1].At > at {
		// Rare out-of-order insert: binary search the position.
		idx := s.start + sort.Search(len(live), func(i int) bool { return live[i].At > at })
		s.points = append(s.points, Point{})
		copy(s.points[idx+1:], s.points[idx:])
		s.points[idx] = Point{At: at, Value: value}
	} else {
		s.points = append(s.points, Point{At: at, Value: value})
	}
	db.evictLocked(s, at)
}

func (db *TSDB) evictLocked(s *tsSeries, now time.Duration) {
	live := s.live()
	drop := 0
	if db.retention > 0 {
		// Walk from the head: in steady state the head is still inside the
		// window and this is one comparison; each point is passed once.
		cut := now - db.retention
		for drop < len(live) && live[drop].At < cut {
			drop++
		}
	}
	if over := len(live) - drop - db.maxPoints; over > 0 {
		drop += over
	}
	if drop == 0 {
		return
	}
	s.start += drop
	// Compact once the dead prefix exceeds half the buffer: each surviving
	// point is copied at most once per halving, keeping eviction amortized
	// O(1) per append while still releasing memory.
	if s.start > len(s.points)/2 {
		n := copy(s.points, s.points[s.start:])
		s.points = s.points[:n]
		s.start = 0
	}
}

// lookupLocked is the read side's by-name lookup. A series that was bound
// but has no sample yet reads as absent, so binding ahead of the first write
// is invisible to queries. Caller holds db.mu.
func (db *TSDB) lookupLocked(name string, labels Labels) *tsSeries {
	s := db.series[seriesKey(name, labels)]
	if s == nil || len(s.live()) == 0 {
		return nil
	}
	return s
}

// Query returns samples of a series within [from, to], inclusive.
func (db *TSDB) Query(name string, labels Labels, from, to time.Duration) []Point {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.lookupLocked(name, labels)
	if s == nil {
		return nil
	}
	live := s.live()
	lo := sort.Search(len(live), func(i int) bool { return live[i].At >= from })
	hi := sort.Search(len(live), func(i int) bool { return live[i].At > to })
	out := make([]Point, hi-lo)
	copy(out, live[lo:hi])
	return out
}

// Latest returns the most recent sample of a series.
func (db *TSDB) Latest(name string, labels Labels) (Point, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.lookupLocked(name, labels)
	if s == nil {
		return Point{}, false
	}
	live := s.live()
	return live[len(live)-1], true
}

// SeriesNames lists distinct series holding at least one sample as
// "name|labelkey" strings, sorted.
func (db *TSDB) SeriesNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.series))
	for k, s := range db.series {
		if len(s.live()) > 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// AggregateKind selects the reduction used by Downsample.
type AggregateKind int

const (
	// AggMean averages samples in the window.
	AggMean AggregateKind = iota
	// AggMax keeps the window maximum.
	AggMax
	// AggMin keeps the window minimum.
	AggMin
	// AggLast keeps the most recent sample in the window.
	AggLast
	// AggCount counts samples in the window.
	AggCount
)

// Downsample reduces a range query into fixed windows of the given width,
// emitting one point per non-empty window stamped at the window start.
func (db *TSDB) Downsample(name string, labels Labels, from, to, window time.Duration, kind AggregateKind) []Point {
	if window <= 0 {
		return db.Query(name, labels, from, to)
	}
	raw := db.Query(name, labels, from, to)
	if len(raw) == 0 {
		return nil
	}
	var out []Point
	wStart := from
	var bucket []float64
	flush := func() {
		if len(bucket) == 0 {
			return
		}
		var v float64
		switch kind {
		case AggMean:
			for _, x := range bucket {
				v += x
			}
			v /= float64(len(bucket))
		case AggMax:
			v = bucket[0]
			for _, x := range bucket[1:] {
				if x > v {
					v = x
				}
			}
		case AggMin:
			v = bucket[0]
			for _, x := range bucket[1:] {
				if x < v {
					v = x
				}
			}
		case AggLast:
			v = bucket[len(bucket)-1]
		case AggCount:
			v = float64(len(bucket))
		}
		out = append(out, Point{At: wStart, Value: v})
		bucket = bucket[:0]
	}
	for _, p := range raw {
		// Jump straight to the window holding p: stepping through the empty
		// windows between two points would cost span/window, not points.
		if p.At-wStart >= window {
			flush()
			wStart += (p.At - wStart) / window * window
		}
		bucket = append(bucket, p.Value)
	}
	flush()
	return out
}

// String describes the database for debugging.
func (db *TSDB) String() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	total := 0
	for _, s := range db.series {
		total += len(s.live())
	}
	return fmt.Sprintf("tsdb{series=%d points=%d}", len(db.series), total)
}
