package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The harness-side tracer. The traced run of a workload brackets every call
// into a layer's public API — from the benchmark's own files, never from
// inside the program — with a span: name, start, end, the span that caused
// it, and the job or request it belongs to. Spans stay in memory and are
// written out when the run ends. A layer's self time is its spans' duration
// minus the part their direct children cover, so self times of nested layers
// add up to the wall the outermost spans cover.

// layer indexes layerNames; a span stores the index, not the string.
type layer uint8

const (
	lyReadTrace layer = iota
	lyPrepare
	lyDaemonNew
	lySubmit
	lyAdmit
	lyRoutePick
	lyOrderPop
	lyClockRun
	lyAnalyzerObserve
	lyAnalyzerSpan
	lyReport
	lyMarshal
	lyClientStart
	lyClientStatus
	lyClientResult
	lyHTTPPostJobs
	lyHTTPGetJob
	lyHTTPGetResult
	lyHTTPMetrics
	lyHTTPAdminStatus
	lyHTTPDevices
	lyHTTPOther
	lyTransport
	lyPump
	lyJobListener
	layerCount
)

var layerNames = [layerCount]string{
	lyReadTrace:       "loadgen.read_trace",
	lyPrepare:         "loadgen.prepare",
	lyDaemonNew:       "daemon.new",
	lySubmit:          "daemon.submit",
	lyAdmit:           "admission.admit",
	lyRoutePick:       "daemon.route_pick",
	lyOrderPop:        "daemon.order_pop",
	lyClockRun:        "simclock.run",
	lyAnalyzerObserve: "loadgen.analyzer_observe",
	lyAnalyzerSpan:    "loadgen.analyzer_span",
	lyReport:          "loadgen.report",
	lyMarshal:         "report.marshal",
	lyClientStart:     "daemon.client.task_start",
	lyClientStatus:    "daemon.client.task_status",
	lyClientResult:    "daemon.client.task_result",
	lyHTTPPostJobs:    "daemon.http.post_jobs",
	lyHTTPGetJob:      "daemon.http.get_job",
	lyHTTPGetResult:   "daemon.http.get_result",
	lyHTTPMetrics:     "daemon.http.metrics",
	lyHTTPAdminStatus: "daemon.http.admin_status",
	lyHTTPDevices:     "daemon.http.devices",
	// Session open/close and anything else the mux serves: traced so the
	// transport span keeps its child, not reported as a layer of its own.
	lyHTTPOther:   "daemon.http.other",
	lyTransport:   "http.transport",
	lyPump:        "simclock.pump",
	lyJobListener: "daemon.job_listener",
}

// noSpan is the parent of a root span.
const noSpan = int32(-1)

type span struct {
	layer      layer
	parent     int32
	job        int64
	start, end time.Duration // since tracer.t0
}

// tracer records spans. A nil *tracer is the tracing-off state: the harness
// installs no decorator at all then, so untraced runs pay nothing.
type tracer struct {
	t0 time.Time
	// stacked marks a run whose spans all begin on one goroutine (the replay
	// driver): the tracer then keeps the stack of open spans, and a span
	// begun without an explicit parent nests under the innermost open one.
	// On the concurrent served path there is no such stack — Go offers no
	// cheap goroutine identity — so parents are passed explicitly where the
	// harness knows them (client call → transport → handler, by request
	// header), and a span begun without one is a root.
	stacked bool
	// off drops spans while set (the serve warm-up).
	off atomic.Bool

	mu    sync.Mutex
	spans []span
	stack []int32
}

func newTracer(stacked bool, capacity int) *tracer {
	return &tracer{t0: time.Now(), stacked: stacked, spans: make([]span, 0, capacity)}
}

// begin opens a span with no explicit parent: under the innermost open span
// when stacked, else as a root. job 0 inherits the parent's job, so every
// span of one job or request shares its identifier without each decorator
// having to know it.
func (t *tracer) begin(l layer, job int64) int32 {
	return t.beginUnder(l, job, noSpan)
}

// beginUnder is begin with an explicit parent, for spans caused from another
// goroutine (an HTTP handler under the client's transport span).
func (t *tracer) beginUnder(l layer, job int64, parent int32) int32 {
	if t.off.Load() {
		return noSpan
	}
	t.mu.Lock()
	if t.stacked && parent == noSpan && len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	if job == 0 && parent != noSpan {
		job = t.spans[parent].job
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: parent, job: job})
	if t.stacked {
		t.stack = append(t.stack, id)
	}
	// Stamp last, so the tracer's own bookkeeping lands in the parent's self
	// time and not in this span.
	t.spans[id].start = time.Since(t.t0)
	t.mu.Unlock()
	return id
}

// end closes a span begin returned; when stacked it must be the innermost.
func (t *tracer) end(id int32) {
	if id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// setJob stamps a job identifier learnt only after the span began (a pop
// knows its job once the item is out).
func (t *tracer) setJob(id int32, job int64) {
	if id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].job = job
	t.mu.Unlock()
}

type layerStat struct {
	calls int
	self  time.Duration
}

// aggregate folds the spans into per-layer call counts and self times.
func (t *tracer) aggregate() [layerCount]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] += s.end - s.start
		}
	}
	var out [layerCount]layerStat
	for i, s := range t.spans {
		st := &out[s.layer]
		st.calls++
		if self := s.end - s.start - children[i]; self > 0 {
			st.self += self
		}
	}
	return out
}

// rootCover sums the duration of root spans of the given layers: the wall
// some span accounts for on the goroutines that open those roots.
func (t *tracer) rootCover(layers ...layer) time.Duration {
	want := [layerCount]bool{}
	for _, l := range layers {
		want[l] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.parent == noSpan && want[s.layer] {
			sum += s.end - s.start
		}
	}
	return sum
}

// dump writes every span, one per line, as
// "index layer job parent start_ns duration_ns".
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d %s %d %d %d %d\n", i, layerNames[s.layer], s.job, s.parent,
			s.start.Nanoseconds(), (s.end - s.start).Nanoseconds())
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// addLayerMetrics writes "<layer>.calls" and "<layer>.self_ms" for the given
// layers into m, adding to what an earlier cell of the same run left there.
func addLayerMetrics(m map[string]float64, stats [layerCount]layerStat, layers []layer) {
	for _, l := range layers {
		m[layerNames[l]+".calls"] += float64(stats[l].calls)
		m[layerNames[l]+".self_ms"] += stats[l].self.Seconds() * 1e3
	}
}
