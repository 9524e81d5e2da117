package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func span(job string, st Stage, start, end time.Duration) Span {
	return Span{Job: job, Stage: st, Start: start, End: end}
}

func terminalSeq(job string, at time.Duration) []Span {
	return []Span{
		{Job: job, Stage: StageValidate, Class: "batch", Start: at, End: at},
		{Job: job, Stage: StageQueued, Class: "batch", Start: at, End: at + time.Second},
		{Job: job, Stage: StageExecute, Class: "batch", Device: "qpu-0", Start: at + time.Second, End: at + 2*time.Second},
		{Job: job, Stage: MarkCompleted, Class: "batch", Start: at + 2*time.Second, End: at + 2*time.Second},
	}
}

func TestStageTerminal(t *testing.T) {
	for _, st := range []Stage{MarkCompleted, MarkFailed, MarkCancelled, MarkRejected} {
		if !st.Terminal() {
			t.Errorf("%s should be terminal", st)
		}
	}
	for _, st := range []Stage{StageValidate, StageAdmission, StageRoute, StageQueued, StageRequeued, StageDispatch, StageExecute, StageBusy, StageIdle, MarkPreempted, MarkRequeued} {
		if st.Terminal() {
			t.Errorf("%s should not be terminal", st)
		}
	}
}

func TestSpanDurInstant(t *testing.T) {
	s := span("job-1", StageQueued, time.Second, 3*time.Second)
	if s.Dur() != 2*time.Second {
		t.Fatalf("dur = %v", s.Dur())
	}
	if s.Instant() {
		t.Fatal("2s span reported instant")
	}
	i := span("job-1", MarkCompleted, time.Second, time.Second)
	if !i.Instant() || i.Dur() != 0 {
		t.Fatal("zero-length span should be instant")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("all-nil Tee should be nil")
	}
	var a, b int
	one := Tee(nil, func(Span) { a++ })
	one(Span{})
	if a != 1 {
		t.Fatalf("single-listener Tee: a = %d", a)
	}
	both := Tee(func(Span) { a++ }, nil, func(Span) { b++ })
	both(Span{})
	both(Span{})
	if a != 3 || b != 2 {
		t.Fatalf("fan-out Tee: a=%d b=%d", a, b)
	}
}

func TestFlightRecorderLifecycle(t *testing.T) {
	r := NewFlightRecorder(8)
	for _, s := range terminalSeq("job-1", 0) {
		r.Observe(s)
	}
	// Live trace for an unfinished job.
	r.Observe(span("job-2", StageQueued, time.Second, time.Second))

	live, done := r.Len()
	if live != 1 || done != 1 {
		t.Fatalf("len = (%d,%d), want (1,1)", live, done)
	}
	tr, ok := r.Job("job-1")
	if !ok {
		t.Fatal("job-1 missing")
	}
	if tr.State != MarkCompleted || tr.Class != "batch" || tr.Device != "qpu-0" {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	if tr2, ok := r.Job("job-2"); !ok || tr2.State != "" {
		t.Fatalf("live job-2: ok=%v state=%q", ok, tr2.State)
	}
	if _, ok := r.Job("job-404"); ok {
		t.Fatal("unknown job should miss")
	}

	jobs := r.Jobs()
	if len(jobs) != 2 || jobs[0].Job != "job-2" || jobs[1].Job != "job-1" {
		t.Fatalf("Jobs() order = %v", []string{jobs[0].Job, jobs[1].Job})
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	r := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		for _, s := range terminalSeq(fmt.Sprintf("job-%d", i), time.Duration(i)*time.Minute) {
			r.Observe(s)
		}
	}
	live, done := r.Len()
	if live != 0 || done != 3 {
		t.Fatalf("len = (%d,%d), want (0,3)", live, done)
	}
	for _, evicted := range []string{"job-0", "job-1"} {
		if _, ok := r.Job(evicted); ok {
			t.Fatalf("%s should be evicted", evicted)
		}
	}
	for _, kept := range []string{"job-2", "job-3", "job-4"} {
		if _, ok := r.Job(kept); !ok {
			t.Fatalf("%s should be retained", kept)
		}
	}
}

func TestFlightRecorderPoolReuse(t *testing.T) {
	r := NewFlightRecorder(1)
	for _, s := range terminalSeq("job-1", 0) {
		r.Observe(s)
	}
	// job-2 evicts job-1; its record, span storage and all, enters the free
	// list.
	for _, s := range terminalSeq("job-2", time.Minute) {
		r.Observe(s)
	}
	if len(r.free) != 1 {
		t.Fatalf("free list = %d, want 1", len(r.free))
	}
	recycled, spans := r.free[0], r.free[0].Spans
	// job-3 should draw the recycled record and its span storage rather than
	// allocate.
	r.Observe(span("job-3", StageValidate, 2*time.Minute, 2*time.Minute))
	if len(r.free) != 0 {
		t.Fatalf("free list not drained: %d", len(r.free))
	}
	got := r.traces.At(3)
	if got != recycled || &spans[0:1][0] != &got.Spans[0:1][0] {
		t.Fatal("job-3 did not reuse the recycled record and its span storage")
	}
	if got.Job != "job-3" || got.State != "" || got.Class != "" || len(got.Spans) != 1 {
		t.Fatalf("recycled record not reset: %+v", *got)
	}
}

// TestFlightRecorderListsInMintOrder: the listing is live traces, then
// terminal ones, each group in the order the jobs were minted — job-9 before
// job-10, which a sort of the ID strings reverses.
func TestFlightRecorderListsInMintOrder(t *testing.T) {
	r := NewFlightRecorder(16)
	for n := 1; n <= 12; n++ {
		id := fmt.Sprintf("job-%d", n)
		r.Observe(span(id, StageValidate, 0, 0))
		if n%3 != 0 {
			r.Observe(span(id, MarkCompleted, time.Second, time.Second))
		}
	}
	var got []string
	for _, tr := range r.Jobs() {
		got = append(got, tr.Job)
	}
	want := []string{"job-3", "job-6", "job-9", "job-12",
		"job-1", "job-2", "job-4", "job-5", "job-7", "job-8", "job-10", "job-11"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Jobs() lists %v, want %v", got, want)
	}
}

func TestFlightRecorderOccupancyBounded(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Second
		r.Observe(Span{Job: fmt.Sprintf("job-%d", i), Stage: StageBusy, Device: "qpu-0", Start: at, End: at + time.Second})
	}
	occ := r.Occupancy()
	track := occ["qpu-0"]
	if len(track) != 4 {
		t.Fatalf("track len = %d, want 4", len(track))
	}
	if track[0].Job != "job-6" || track[3].Job != "job-9" {
		t.Fatalf("track should keep the newest spans, got %s..%s", track[0].Job, track[3].Job)
	}
	// Occupancy spans must not create job traces.
	if live, done := r.Len(); live != 0 || done != 0 {
		t.Fatalf("occupancy leaked into job traces: (%d,%d)", live, done)
	}
}

func TestWriteChromeShape(t *testing.T) {
	jobs := []JobTrace{
		{Job: "job-10", Class: "batch", Spans: terminalSeq("job-10", time.Minute)},
		{Job: "job-2", Class: "batch", Spans: terminalSeq("job-2", 0)},
	}
	occ := map[string][]Span{
		"qpu-1": {{Stage: StageIdle, Device: "qpu-1", Start: 0, End: time.Second}},
		"qpu-0": {{Job: "job-2", Stage: StageBusy, Device: "qpu-0", Start: time.Second, End: 2 * time.Second}},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, jobs, occ); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.Unit)
	}
	var threads []string
	for _, ev := range file.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			threads = append(threads, ev["args"].(map[string]any)["name"].(string))
		}
	}
	// Devices sorted, then jobs by numeric suffix (job-2 before job-10).
	want := []string{"qpu-0", "qpu-1", "job-2", "job-10"}
	if fmt.Sprint(threads) != fmt.Sprint(want) {
		t.Fatalf("thread order = %v, want %v", threads, want)
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, jobs, occ); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export is not byte-stable")
	}
}
