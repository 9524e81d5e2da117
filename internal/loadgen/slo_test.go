package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/sched"
	"hpcqc/internal/trace"
)

// quantiles computes nearest-rank quantiles of an unsorted sample set,
// leaving it unsorted.
func quantiles(samples []float64) Quantiles {
	return quantilesInPlace(append([]float64(nil), samples...))
}

// TestQuantilesTable locks in the nearest-rank convention documented on
// pickQuantiles: percentile p → 1-based rank round(p·N) half away from zero,
// clamped into [1, N], no interpolation. Sweep reports must stay
// byte-identical across refactors, so these expectations are the contract —
// a change that shifts any rank is a report-format change, not a cleanup.
func TestQuantilesTable(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		// Distinct, unsorted input: 1..100 shuffled by a fixed stride so the
		// test also covers the sort step.
		hundred[i] = float64((i*37)%100 + 1)
	}
	cases := []struct {
		name    string
		samples []float64
		want    Quantiles
	}{
		// N=0: zeros, never NaN and never a panic.
		{name: "empty", samples: nil, want: Quantiles{}},
		{name: "empty-non-nil", samples: []float64{}, want: Quantiles{}},
		// N=1: every percentile is the sample.
		{name: "single", samples: []float64{42}, want: Quantiles{P50: 42, P95: 42, P99: 42}},
		// N=2: p50 rank round(0.5·2)=1 → lower sample; p95 rank
		// round(1.9)=2 and p99 rank round(1.98)=2 → upper sample.
		{name: "pair", samples: []float64{7, 3}, want: Quantiles{P50: 3, P95: 7, P99: 7}},
		// N=100: ranks 50/95/99 → the 50th/95th/99th order statistics.
		{name: "hundred", samples: hundred, want: Quantiles{P50: 50, P95: 95, P99: 99}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := quantiles(tc.samples)
			if got != tc.want {
				t.Fatalf("quantiles(%s) = %+v, want %+v", tc.name, got, tc.want)
			}
			if math.IsNaN(got.P50) || math.IsNaN(got.P95) || math.IsNaN(got.P99) {
				t.Fatalf("quantiles(%s) produced NaN: %+v", tc.name, got)
			}
		})
	}
}

// TestQuantilesDoesNotMutateInput guards the copy-before-sort: callers hand
// quantiles their live per-class sample slices.
func TestQuantilesDoesNotMutateInput(t *testing.T) {
	in := []float64{9, 1, 5}
	quantiles(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatalf("input mutated: %v", in)
	}
}

// oracleStages is the stage attribution as Report computed it before the
// stage table: every span length kept per class and stage, converted to
// seconds, summed in observation order, sorted as float64s and picked by
// nearest rank.
func oracleStages(spans []trace.Span) map[string]map[string]*StageSLO {
	samples := map[string]map[trace.Stage][]time.Duration{}
	for _, s := range spans {
		switch s.Stage {
		case trace.StageValidate, trace.StageAdmission, trace.StageRoute,
			trace.StageQueued, trace.StageRequeued, trace.StageExecute:
		default:
			continue
		}
		if samples[s.Class] == nil {
			samples[s.Class] = map[trace.Stage][]time.Duration{}
		}
		samples[s.Class][s.Stage] = append(samples[s.Class][s.Stage], s.End-s.Start)
	}
	out := map[string]map[string]*StageSLO{}
	for class, byStage := range samples {
		out[class] = map[string]*StageSLO{}
		for stage, durs := range byStage {
			secs := make([]float64, len(durs))
			for i, d := range durs {
				secs[i] = d.Seconds()
			}
			st := &StageSLO{Spans: len(secs)}
			for _, v := range secs {
				st.TotalSeconds += v
			}
			sort.Float64s(secs)
			st.Seconds = quantiles(secs)
			st.MeanSeconds = st.TotalSeconds / float64(len(secs))
			out[class][string(stage)] = st
		}
	}
	return out
}

// TestStageTableMatchesAllSamples is the differential test of the stage
// table — zero-length spans counted, only non-zero lengths stored — against
// the all-samples oracle: on random span streams rich in instants, repeated
// lengths and the odd negative, every class, every stage and some skipped
// ones, Spans, the quantiles, the mean and the total agree bit for bit.
func TestStageTableMatchesAllSamples(t *testing.T) {
	classes := []string{"production", "test", "dev"}
	stages := []trace.Stage{trace.StageValidate, trace.StageAdmission, trace.StageRoute,
		trace.StageQueued, trace.StageRequeued, trace.StageExecute,
		trace.StageDispatch, trace.StageBusy, trace.MarkCompleted}
	repeated := []time.Duration{0, 0, 0, time.Microsecond, 1500 * time.Millisecond, 7 * time.Second, -3 * time.Millisecond}
	bits := func(q Quantiles) [3]uint64 {
		return [3]uint64{math.Float64bits(q.P50), math.Float64bits(q.P95), math.Float64bits(q.P99)}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spans := make([]trace.Span, rng.Intn(600))
		for i := range spans {
			d := repeated[rng.Intn(len(repeated))]
			if rng.Intn(3) == 0 {
				d = time.Duration(rng.Int63n(int64(time.Hour)))
			}
			start := time.Duration(rng.Int63n(int64(24 * time.Hour)))
			spans[i] = trace.Span{Job: "job-1", Stage: stages[rng.Intn(len(stages))],
				Class: classes[rng.Intn(len(classes))], Start: start, End: start + d}
		}
		a := NewAnalyzer(nil)
		for _, s := range spans {
			a.ObserveSpan(s)
		}
		rep := a.Report()
		want := oracleStages(spans)
		for _, class := range classes {
			var got map[string]*StageSLO
			if c := rep.PerClass[class]; c != nil {
				got = c.Stages
			}
			if len(got) != len(want[class]) {
				t.Fatalf("seed %d %s: %d stages, oracle %d", seed, class, len(got), len(want[class]))
			}
			for stage, w := range want[class] {
				g := got[stage]
				switch {
				case g == nil:
					t.Fatalf("seed %d %s/%s: missing", seed, class, stage)
				case g.Spans != w.Spans || bits(g.Seconds) != bits(w.Seconds) ||
					math.Float64bits(g.MeanSeconds) != math.Float64bits(w.MeanSeconds) ||
					math.Float64bits(g.TotalSeconds) != math.Float64bits(w.TotalSeconds):
					t.Fatalf("seed %d %s/%s: got %+v, oracle %+v", seed, class, stage, *g, *w)
				}
			}
		}
	}
}

// feedCell drives an analyzer through a synthetic cell of n jobs on the
// named devices: shed and down-classed submissions, cache outcomes,
// preemptions with cross-device requeues, every terminal state, deadlines
// and the pipeline spans of each job.
func feedCell(a *Analyzer, seed int64, n int, devices []string) {
	rng := rand.New(rand.NewSource(seed))
	states := []daemon.JobState{daemon.JobCompleted, daemon.JobCompleted, daemon.JobFailed, daemon.JobCancelled}
	span := func(j *daemon.Job, stage trace.Stage, start, end time.Duration) {
		a.ObserveSpan(trace.Span{Job: j.ID, Stage: stage, Class: j.Class.String(), Device: j.Device, Start: start, End: end})
	}
	for k := 0; k < n; k++ {
		at := time.Duration(k) * time.Minute
		j := daemon.Job{ID: fmt.Sprintf("job-%d", k), Class: sched.Class(rng.Intn(3)),
			Device: devices[rng.Intn(len(devices))], SubmittedAt: at, ExpectedQPUSeconds: float64(rng.Intn(60))}
		j.RequestedClass = j.Class
		if j.Class > sched.ClassDev && rng.Intn(5) == 0 {
			j.Class--
		}
		if rng.Intn(2) == 0 {
			j.DeadlineSeconds = float64(30 + rng.Intn(600))
		}
		span(&j, trace.StageValidate, at, at)
		span(&j, trace.StageAdmission, at, at)
		if rng.Intn(8) == 0 {
			a.Observe(daemon.JobEvent{Type: daemon.JobEventRejected, At: at, Job: j})
			continue
		}
		a.Observe(daemon.JobEvent{Type: daemon.JobEventSubmitted, At: at, Job: j})
		span(&j, trace.StageRoute, at, at)
		start := at + time.Duration(rng.Intn(300))*time.Second
		span(&j, trace.StageQueued, at, start)
		j.Cache = []string{"", "hit", "miss"}[rng.Intn(3)]
		a.Observe(daemon.JobEvent{Type: daemon.JobEventStarted, At: start, Job: j})
		if rng.Intn(4) == 0 {
			a.Observe(daemon.JobEvent{Type: daemon.JobEventPreempted, At: start + time.Second, Job: j})
			span(&j, trace.StageExecute, start, start+time.Second)
			j.Device = devices[rng.Intn(len(devices))]
			a.Observe(daemon.JobEvent{Type: daemon.JobEventRequeued, At: start + time.Second, Job: j})
			span(&j, trace.StageRequeued, start+time.Second, start+5*time.Second)
			start += 5 * time.Second
			a.Observe(daemon.JobEvent{Type: daemon.JobEventStarted, At: start, Job: j})
		}
		if rng.Intn(10) == 0 {
			continue // still in flight when the report is built
		}
		end := start + time.Duration(1+rng.Intn(120))*time.Second
		span(&j, trace.StageExecute, start, end)
		j.State = states[rng.Intn(len(states))]
		a.Observe(daemon.JobEvent{Type: daemon.JobEventFinished, At: end, Job: j})
	}
}

// TestPooledAnalyzerReportsLikeFresh replays a busy cell — preemptions,
// four devices, every stage — into an analyzer, resets it and replays a
// smaller cell on other devices: the report must equal a fresh analyzer's
// byte for byte, so nothing of the first cell (tracks, device table, stage
// cells) leaks through the pool.
func TestPooledAnalyzerReportsLikeFresh(t *testing.T) {
	pooled := NewAnalyzer(nil)
	feedCell(pooled, 1, 400, []string{"qpu-p0", "qpu-p1", "qpu-p2", "qpu-p3"})
	if first := pooled.Report(); first.Preemptions == 0 || len(first.PerDevice) != 4 {
		t.Fatalf("first cell too quiet: %d preemptions, %d devices", first.Preemptions, len(first.PerDevice))
	}
	pooled.Reset()
	feedCell(pooled, 2, 60, []string{"qpu-p3", "qpu-p9"})
	fresh := NewAnalyzer(nil)
	feedCell(fresh, 2, 60, []string{"qpu-p3", "qpu-p9"})
	got, err := json.Marshal(pooled.Report())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pooled report differs from a fresh analyzer's:\n got %s\nwant %s", got, want)
	}
}

// TestJobTrackIsPointerFree guards the per-job track's shape: no field the
// GC must scan, and no more than 64 bytes — what the peak heap holds for
// every job a replay has seen.
func TestJobTrackIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(jobTrack{})
	if typ.Size() > 64 {
		t.Errorf("jobTrack is %d bytes, want ≤ 64", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint32, reflect.Float64:
		default:
			t.Errorf("jobTrack.%s is a %s", f.Name, f.Type)
		}
	}
}

// TestInstantSpanDoesNotAllocate: a zero-length stage span — three of a
// replayed job's five — is counted, never stored, so any number of them
// costs no allocation.
func TestInstantSpanDoesNotAllocate(t *testing.T) {
	a := NewAnalyzer(nil)
	s := trace.Span{Job: "job-1", Stage: trace.StageAdmission, Class: "test", Start: time.Hour, End: time.Hour}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1<<14; i++ {
			a.ObserveSpan(s)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 16384 instant spans, want 0", allocs)
	}
}
