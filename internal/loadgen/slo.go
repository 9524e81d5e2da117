package loadgen

import (
	"slices"
	"sort"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/mint"
	"hpcqc/internal/sched"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// jobTrack is the analyzer's per-job lifecycle accumulator, what the peak heap
// holds per job seen: pointer-free, so the GC never scans the slab behind it.
type jobTrack struct {
	submitted, firstStart, finished time.Duration
	expected                        float64
	// deadline is the job's relative completion deadline in seconds (0 =
	// none) — the deadline-hit accounting key.
	deadline float64
	device   uint32 // index into Analyzer.devices
	// preempts and per-dispatch program-cache outcomes (preemption re-dispatches)
	preempts, cacheHits, cacheMisses int32
	// class and requested are sched.Class values; requested differs only
	// when admission down-classed the job.
	class, requested  uint8
	state             trackState // once terminal
	started, terminal bool
}

// trackState is a terminal track's state; trackOther counts nowhere.
type trackState uint8

const (
	trackOther trackState = iota
	trackCompleted
	trackFailed
	trackCancelled
	trackRejected
)

// spanStages are the pipeline stages the attribution keeps, in table order.
var spanStages = [...]trace.Stage{trace.StageValidate, trace.StageAdmission, trace.StageRoute,
	trace.StageQueued, trace.StageRequeued, trace.StageExecute}

// stageCell is one class's spans of one stage: zero-length ones (a replay's
// validate, admission and route spans) counted, others kept in emission order.
type stageCell struct {
	zeros int
	durs  []time.Duration
}

// Analyzer folds daemon job lifecycle events into SLO distributions. Attach
// Observe as (or inside) the daemon's Config.JobListener. It is the consumer
// side of the daemon's event hooks: a single instance watches one daemon.
//
// When a telemetry registry is supplied, wait and slowdown observations are
// also exported through telemetry.Metric histograms (loadgen_wait_seconds,
// loadgen_slowdown) so a live site scrapes SLO attainment from /metrics with
// the same machinery as every other signal.
type Analyzer struct {
	preempts      int
	requeues      int
	crossRequeues int
	terminal      int
	lastTerminal  time.Duration

	// devices is the run's device table, which tracks index into.
	devices      []string
	preemptByDev map[string]int

	// Pre-bound per-class series: one job finishing observes at most two
	// histograms, and binding at construction keeps label-map allocation and
	// key rendering out of that per-job path. Nil entries (no registry) no-op.
	bWait, bSlowdown [sched.ClassProduction + 1]*telemetry.BoundSeries

	// stages is the stage-latency attribution, populated when ObserveSpan is
	// wired as the daemon's span listener: one cell per class and stage.
	// Durations stay in the emission unit — the float64 seconds conversion
	// happens at Report time, not on the per-span hot path.
	stages [sched.ClassProduction + 1][len(spanStages)]stageCell

	// chunks is the slab allocator behind jobTrack records: fixed-size blocks
	// handed out sequentially, retained across Reset so a pooled analyzer
	// replaying its next cell reuses the previous cell's track memory instead
	// of allocating one small object per job.
	chunks [][]jobTrack
	used   int
}

// trackChunkSize is the jobTrack slab block size (tracks per allocation).
const trackChunkSize = 4096

// newTrack hands out the next zeroed jobTrack from the slab, to job id when
// it is the next job: a daemon mints job-N in submission order from job-1,
// so job N's track is slot N-1, and an ID is read only where its event
// enters (newTrack, live). Any other ID gets no track.
func (a *Analyzer) newTrack(id string) *jobTrack {
	if mint.Number(mint.JobPrefix, id) != a.used+1 {
		return nil
	}
	ci, off := a.used/trackChunkSize, a.used%trackChunkSize
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]jobTrack, trackChunkSize))
	}
	a.used++
	t := &a.chunks[ci][off]
	*t = jobTrack{}
	return t
}

// live returns the track of job id while it is in flight, else nil.
func (a *Analyzer) live(id string) *jobTrack {
	i := mint.Number(mint.JobPrefix, id) - 1
	if i >= 0 && i < a.used && !a.chunks[i/trackChunkSize][i%trackChunkSize].terminal {
		return &a.chunks[i/trackChunkSize][i%trackChunkSize]
	}
	return nil
}

// device returns the device-table index of id, adding it on first sight. The
// scan costs what a routing pick's walk over the same fleet already costs.
func (a *Analyzer) device(id string) uint32 {
	i := slices.Index(a.devices, id)
	if i < 0 {
		i, a.devices = len(a.devices), append(a.devices, id)
	}
	return uint32(i)
}

// Reset clears the analyzer for a fresh replay while retaining every
// allocation it has made — maps, stage sample slices and the track slab. This
// is the state-pooling hook behind the sweep engine: a thousand-cell sweep
// recycles one analyzer per worker instead of growing the heap by one per
// cell. Only registry-less analyzers are pooled (bound telemetry series
// belong to a specific registry).
func (a *Analyzer) Reset() {
	clear(a.preemptByDev)
	a.devices = a.devices[:0]
	a.preempts, a.requeues, a.crossRequeues, a.terminal = 0, 0, 0, 0
	a.lastTerminal, a.used = 0, 0
	for c := range a.stages {
		for i, cell := range a.stages[c] {
			a.stages[c][i] = stageCell{durs: cell.durs[:0]}
		}
	}
}

// NewAnalyzer returns an analyzer; reg may be nil to skip metric exposition.
func NewAnalyzer(reg *telemetry.Registry) *Analyzer {
	a := &Analyzer{preemptByDev: make(map[string]int)}
	if reg != nil {
		mWait := reg.MustHistogram("loadgen_wait_seconds", "Job queue wait by class under generated load.",
			[]float64{1, 5, 15, 60, 300, 1800, 7200})
		mSlowdown := reg.MustHistogram("loadgen_slowdown", "Job slowdown (turnaround / expected service) by class.",
			[]float64{1, 1.5, 2, 3, 5, 8, 16, 64})
		for c := sched.ClassProduction; c >= sched.ClassDev; c-- {
			a.bWait[c] = mWait.Bind(telemetry.Labels{"class": c.String()})
			a.bSlowdown[c] = mSlowdown.Bind(telemetry.Labels{"class": c.String()})
		}
	}
	return a
}

// Observe consumes one job lifecycle event. It must see every event of the
// run (wire it up before the first submission). Not safe for concurrent use
// with itself; the daemon invokes listeners synchronously, which is the
// intended single-threaded replay setup.
func (a *Analyzer) Observe(ev daemon.JobEvent) {
	switch ev.Type {
	case daemon.JobEventSubmitted, daemon.JobEventRejected:
		t := a.newTrack(ev.Job.ID)
		if t == nil {
			return
		}
		t.class, t.submitted, t.expected = uint8(ev.Job.Class), ev.Job.SubmittedAt, ev.Job.ExpectedQPUSeconds
		if ev.Type == daemon.JobEventRejected {
			// Shed submissions are terminal from birth: they count as offered
			// load (for shed rates) but never enter the wait distributions,
			// and are never in flight.
			t.state, t.terminal, t.finished = trackRejected, true, ev.At
			a.terminal++
			a.lastTerminal = max(a.lastTerminal, ev.At)
			return
		}
		t.requested, t.device, t.deadline = uint8(ev.Job.RequestedClass), a.device(ev.Job.Device), ev.Job.DeadlineSeconds
	case daemon.JobEventStarted:
		t := a.live(ev.Job.ID)
		if t == nil {
			return
		}
		if !t.started {
			t.started = true
			t.firstStart = ev.At
		}
		// Every start is one dispatch, so the cache outcome is counted here
		// (not just on first start): a preempted job's re-dispatch probes the
		// cache again. Empty means caching is off.
		switch ev.Job.Cache {
		case "hit":
			t.cacheHits++
		case "miss":
			t.cacheMisses++
		}
	case daemon.JobEventPreempted:
		a.preempts++
		a.preemptByDev[ev.Job.Device]++
		if t := a.live(ev.Job.ID); t != nil {
			t.preempts++
		}
	case daemon.JobEventRequeued:
		a.requeues++
		if t := a.live(ev.Job.ID); t != nil {
			dev := a.device(ev.Job.Device)
			if dev != t.device {
				a.crossRequeues++
			}
			t.device = dev
		}
	case daemon.JobEventFinished:
		t := a.live(ev.Job.ID)
		if t == nil {
			return
		}
		switch ev.Job.State { // a live track's state is trackOther
		case daemon.JobCompleted:
			t.state = trackCompleted
		case daemon.JobFailed:
			t.state = trackFailed
		case daemon.JobCancelled:
			t.state = trackCancelled
		}
		t.terminal, t.finished = true, ev.At
		t.device = a.device(ev.Job.Device)
		a.terminal++
		a.lastTerminal = max(a.lastTerminal, ev.At)
		if t.started {
			a.bWait[t.class].Observe((t.firstStart - t.submitted).Seconds())
		}
		if t.state == trackCompleted && t.expected > 0 {
			a.bSlowdown[t.class].Observe((t.finished - t.submitted).Seconds() / t.expected)
		}
	}
}

// ObserveSpan consumes one pipeline span — wire it as (or inside) the
// daemon's Config.SpanListener to get stage-latency attribution in the
// report. Occupancy spans, instant lifecycle marks and spans of no known
// class are skipped; what accumulates is where each job's seconds went, per
// class and stage. Like Observe, not safe for concurrent use with itself.
// It is small enough to inline into the method value a listener holds, so
// the span is read where the daemon passed it, not copied once more.
func (a *Analyzer) ObserveSpan(s trace.Span) { a.observeSpan(s.Class, s.Stage, s.End-s.Start) }

// observeSpan adds one span of class and stage, d long, to its cell of the
// attribution table (spanStages' order).
func (a *Analyzer) observeSpan(class string, stage trace.Stage, d time.Duration) {
	c, i := sched.ClassDev, 0
	switch class {
	case sched.ClassDev.String():
	case sched.ClassTest.String():
		c = sched.ClassTest
	case sched.ClassProduction.String():
		c = sched.ClassProduction
	default:
		return
	}
	switch stage {
	case trace.StageValidate:
	case trace.StageAdmission:
		i = 1
	case trace.StageRoute:
		i = 2
	case trace.StageQueued:
		i = 3
	case trace.StageRequeued:
		i = 4
	case trace.StageExecute:
		i = 5
	default:
		return
	}
	cell := &a.stages[c][i]
	if d != 0 {
		cell.durs = append(cell.durs, d)
	} else {
		cell.zeros++
	}
}

// Counts reports (accepted, terminal) job totals — the replay driver's drain
// condition.
func (a *Analyzer) Counts() (submitted, terminal int) {
	return a.used, a.terminal
}

// Report aggregates the distributions observed so far; it sorts only scratch.
func (a *Analyzer) Report() *Report {
	rep := &Report{
		Preemptions:     a.preempts,
		Requeues:        a.requeues,
		CrossRequeues:   a.crossRequeues,
		MakespanSeconds: a.lastTerminal.Seconds(),
		PerClass:        make(map[string]*ClassSLO),
		PerDevice:       make(map[string]*DeviceSLO),
	}
	var waits, slowdowns, lateness [sched.ClassProduction + 1][]float64
	// offered counts submissions by the class they were *submitted* at —
	// the shed-rate denominator (a down-classed test job was offered at
	// test even though it ran at dev).
	var offered [sched.ClassProduction + 1]int
	var classes [sched.ClassProduction + 1]*ClassSLO
	classSLO := func(class uint8) *ClassSLO {
		if classes[class] == nil {
			classes[class] = &ClassSLO{}
			rep.PerClass[sched.Class(class).String()] = classes[class]
		}
		return classes[class]
	}
	deviceSLO := func(id string) *DeviceSLO {
		dv := rep.PerDevice[id]
		if dv == nil {
			dv = &DeviceSLO{}
			rep.PerDevice[id] = dv
		}
		return dv
	}
	for i := 0; i < a.used; i++ {
		t := &a.chunks[i/trackChunkSize][i%trackChunkSize]
		rep.Jobs++
		c := classSLO(t.class)
		c.Jobs++
		if t.state == trackRejected {
			// Shed at the door: offered-load accounting only; no device,
			// wait or slowdown samples.
			rep.Rejected++
			c.Rejected++
			offered[t.class]++
			continue
		}
		if t.requested != t.class {
			rep.Downgraded++
			classSLO(t.requested).Downgraded++
		}
		offered[t.requested]++
		c.Preemptions += int(t.preempts)
		dv := deviceSLO(a.devices[t.device])
		dv.Jobs++
		c.CacheHits += int(t.cacheHits)
		c.CacheMisses += int(t.cacheMisses)
		rep.ProgramCacheHits += int(t.cacheHits)
		rep.ProgramCacheMisses += int(t.cacheMisses)
		if t.started {
			waits[t.class] = append(waits[t.class], (t.firstStart - t.submitted).Seconds())
		}
		if !t.terminal {
			continue
		}
		switch t.state {
		case trackCompleted:
			rep.Completed++
			c.Completed++
			dv.Completed++
			if t.expected > 0 {
				slowdowns[t.class] = append(slowdowns[t.class], (t.finished-t.submitted).Seconds()/t.expected)
			}
		case trackFailed:
			rep.Failed++
			c.Failed++
		case trackCancelled:
			rep.Cancelled++
			c.Cancelled++
		}
		if t.deadline > 0 {
			c.DeadlineJobs++
			late := (t.finished - t.submitted).Seconds() - t.deadline
			if t.state == trackCompleted {
				// Lateness is only meaningful for work that finished; hits
				// use the same ≤-deadline convention as the span annotation.
				lateness[t.class] = append(lateness[t.class], late)
			}
			if t.state == trackCompleted && late <= 0 {
				c.DeadlineHits++
			} else {
				c.DeadlineMisses++
			}
		}
	}
	for dev, n := range a.preemptByDev {
		deviceSLO(dev).Preemptions = n
	}
	for class, c := range classes {
		if c == nil {
			continue
		}
		// The mean sums in observation order, before the sort.
		w := waits[class]
		for _, v := range w {
			c.MeanWaitSeconds += v
		}
		if len(w) > 0 {
			c.MeanWaitSeconds /= float64(len(w))
		}
		c.WaitSeconds = quantilesInPlace(w)
		c.Slowdown = quantilesInPlace(slowdowns[class])
		if n := offered[class]; n > 0 {
			c.ShedRate = float64(c.Rejected) / float64(n)
		}
		if rep.MakespanSeconds > 0 {
			c.GoodputJobsPerHour = float64(c.Completed) / (rep.MakespanSeconds / 3600)
		}
		if total := c.CacheHits + c.CacheMisses; total > 0 {
			c.CacheHitRate = float64(c.CacheHits) / float64(total)
		}
		if c.DeadlineJobs > 0 {
			c.DeadlineHitRate = float64(c.DeadlineHits) / float64(c.DeadlineJobs)
		}
		if l := lateness[class]; len(l) > 0 {
			q := quantilesInPlace(l)
			c.LatenessSeconds = &q
		}
	}
	if total := rep.ProgramCacheHits + rep.ProgramCacheMisses; total > 0 {
		rep.ProgramCacheHitRate = float64(rep.ProgramCacheHits) / float64(total)
	}
	var scratch []time.Duration
	for class := range a.stages {
		var stages map[string]*StageSLO
		for i := range a.stages[class] {
			cell := &a.stages[class][i]
			n := cell.zeros + len(cell.durs)
			// A pooled analyzer retains truncated cells from earlier runs;
			// only stages observed in *this* run may appear in the report.
			if n == 0 {
				continue
			}
			// Adding a zero span's +0.0 moves no bit, so the total sums the
			// non-zero spans alone, in observation order.
			st := &StageSLO{Spans: n}
			for _, d := range cell.durs {
				st.TotalSeconds += d.Seconds()
			}
			st.MeanSeconds = st.TotalSeconds / float64(n)
			// Seconds is monotone, so ranks over the sorted durations pick
			// the same samples as ranks over sorted seconds. The zero run
			// sorts after the negatives (if any ever occur).
			scratch = append(scratch[:0], cell.durs...)
			slices.Sort(scratch)
			neg := sort.Search(len(scratch), func(i int) bool { return scratch[i] > 0 })
			st.Seconds = pickQuantiles(n, func(i int) float64 {
				if i >= neg+cell.zeros {
					i -= cell.zeros
				} else if i >= neg {
					return 0
				}
				return scratch[i].Seconds()
			})
			if stages == nil {
				stages = make(map[string]*StageSLO, len(spanStages))
			}
			stages[string(spanStages[i])] = st
		}
		if stages != nil {
			classSLO(uint8(class)).Stages = stages
		}
	}
	return rep
}
