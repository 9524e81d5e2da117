package trace

import "hpcqc/internal/mint"

// FlightRecorder is the bounded in-daemon trace store: the live (not yet
// terminal) job traces plus the last N terminal ones, and a bounded occupancy
// track per partition. It is the span consumer behind GET /api/v1/trace and
// `qctl trace <job>` — enough history to answer "where did that job's seconds
// go" without growing daemon memory with the job count.
//
// It keeps the daemon's retention rule (DESIGN §5 INV-R1) on the same type:
// one ring of traces indexed by job number, and a finish-order ring that
// evicts the oldest terminal trace past the capacity. Like the analyzer's
// tracks, a trace opens only for the next job number it has not seen, which
// is the order a daemon mints jobs and emits their first spans in; a span
// for any other unheld number opens nothing. An evicted trace goes whole,
// span storage and all, onto a free list the next trace is taken from, so a
// recorder at its capacity allocates nothing per job.
//
// Like every listener, it lives inside the daemon's world and keeps no lock:
// Observe runs where spans are emitted, and a reader — the HTTP handlers,
// or a driver after its replay — holds the world while it copies.
type FlightRecorder struct {
	// capacity bounds the terminal ring; live traces are bounded by the
	// daemon's own queue depths (every queued or running job has exactly one
	// live trace).
	capacity int
	traces   mint.Ring[JobTrace] // every trace held, indexed by job number
	done     mint.Ring[JobTrace] // terminal traces in finish order
	opened   int                 // the newest job number a trace opened for
	live     int
	free     []*JobTrace
	// occ holds per-device occupancy spans, each track bounded at capacity.
	occ map[string][]Span
}

// DefaultFlightCapacity is the ring size when none is given: deep enough to
// hold a burst of a few hundred jobs, small enough (~60 B/span, ~8 spans/job)
// to be irrelevant next to the daemon's job table.
const DefaultFlightCapacity = 256

// spansPerTrace is a fresh trace's span capacity: a clean lifecycle is 7
// pipeline spans plus a terminal mark; preempted jobs grow it.
const spansPerTrace = 8

// NewFlightRecorder returns a recorder retaining the last capacity terminal
// job traces (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{capacity: capacity, occ: make(map[string][]Span)}
}

// Observe consumes one span — attach it as (or inside) the daemon's span
// listener. A span for a terminal trace is ignored: the trace is closed.
func (r *FlightRecorder) Observe(s Span) {
	if s.Stage == StageBusy || s.Stage == StageIdle {
		r.observeOccupancy(s)
		return
	}
	n := mint.Number(mint.JobPrefix, s.Job)
	t := r.traces.At(n)
	if t == nil {
		if n == 0 || n != r.opened+1 {
			return
		}
		t = r.open(s.Job)
	}
	if t.State != "" {
		return
	}
	t.Spans = append(t.Spans, s)
	if s.Class != "" {
		t.Class = s.Class
	}
	if s.Device != "" {
		t.Device = s.Device
	}
	if !s.Stage.Terminal() {
		return
	}
	t.State = s.Stage
	r.live--
	r.done.Push(t)
	if r.done.Len() > r.capacity {
		old := r.done.Pop()
		r.traces.Drop(old.num)
		r.free = append(r.free, old)
	}
}

// open files a live trace for job, the next number, taking the record off
// the free list when there is one.
func (r *FlightRecorder) open(job string) *JobTrace {
	var t *JobTrace
	if n := len(r.free); n > 0 {
		t, r.free = r.free[n-1], r.free[:n-1]
		*t = JobTrace{Spans: t.Spans[:0]}
	} else {
		t = &JobTrace{Spans: make([]Span, 0, spansPerTrace)}
	}
	t.Job, r.live = job, r.live+1
	r.opened = r.traces.Push(t)
	t.num = r.opened
	return t
}

// observeOccupancy appends to a partition's bounded occupancy track. Tracks
// are allocated at full ring capacity up front (bounded, a few hundred
// spans), so steady-state appends never grow the backing array.
func (r *FlightRecorder) observeOccupancy(s Span) {
	track, ok := r.occ[s.Device]
	if !ok {
		track = make([]Span, 0, r.capacity+1)
	}
	track = append(track, s)
	if over := len(track) - r.capacity; over > 0 {
		track = track[:copy(track, track[over:])]
	}
	r.occ[s.Device] = track
}

// copyTrace is a trace with spans of its own.
func copyTrace(t *JobTrace) JobTrace {
	cp := *t
	cp.Spans = append([]Span(nil), t.Spans...)
	return cp
}

// Job returns a copy of one job's trace (live or retained terminal), or
// false when the recorder no longer has it.
func (r *FlightRecorder) Job(id string) (JobTrace, bool) {
	if t := r.traces.At(mint.Number(mint.JobPrefix, id)); t != nil {
		return copyTrace(t), true
	}
	return JobTrace{}, false
}

// Jobs returns copies of every held trace: live first, then terminal, each
// group in the order its jobs were minted.
func (r *FlightRecorder) Jobs() []JobTrace {
	out := make([]JobTrace, 0, r.live+r.done.Len())
	for _, terminal := range [...]bool{false, true} {
		for _, t := range r.traces.Slots() {
			if t != nil && (t.State != "") == terminal {
				out = append(out, copyTrace(t))
			}
		}
	}
	return out
}

// Occupancy returns each partition's occupancy track (copies), keyed by
// device ID.
func (r *FlightRecorder) Occupancy() map[string][]Span {
	out := make(map[string][]Span, len(r.occ))
	for dev, track := range r.occ {
		out[dev] = append([]Span(nil), track...)
	}
	return out
}

// Len reports (live, terminal) trace counts.
func (r *FlightRecorder) Len() (live, done int) { return r.live, r.done.Len() }
