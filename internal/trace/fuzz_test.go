package trace

import (
	"strconv"
	"testing"
	"time"

	"hpcqc/internal/mint"
)

// fuzzStages is every stage a span can carry, occupancy and marks included.
var fuzzStages = [...]Stage{StageValidate, StageAdmission, StageRoute, StageQueued, StageRequeued,
	StageDispatch, StageExecute, StageBusy, StageIdle, MarkCompleted, MarkFailed, MarkCancelled,
	MarkRejected, MarkPreempted, MarkRequeued}

// FuzzFlightRecorder: whatever IDs, stages and orders reach it, the recorder
// never panics, holds at most capacity terminal traces, opens a trace only
// for the next job number it has not seen — never for an unparseable ID, an
// occupancy span or a number it has evicted — and every trace it holds
// carries only its own job's spans, closed by its terminal mark if it has
// one. Each pair of op bytes is one span: the first picks its ID (the next
// number, one at or below it spelled canonically or not, or junk), the
// second its stage.
func FuzzFlightRecorder(f *testing.F) {
	f.Add(uint8(2), "job-07", []byte{0, 0, 0, 9, 4, 0, 1, 9, 0, 3, 0, 11, 8, 9, 2, 0, 3, 0, 0, 7, 0, 9})
	f.Add(uint8(0), "", []byte{0, 7, 0, 8, 0, 0, 4, 9, 8, 9, 0, 0, 0, 10, 0, 0, 0, 12, 5, 6, 1, 3})
	f.Add(uint8(5), "job-9223372036854775808", []byte{0, 0, 3, 0, 0, 9, 0, 0, 7, 0, 0, 9, 13, 9, 0, 1})
	f.Add(uint8(1), "qpu-task-1", []byte{0, 0, 0, 0, 0, 0, 0, 9, 0, 9, 0, 9, 12, 0, 16, 0, 20, 9})
	f.Fuzz(func(t *testing.T, capacity uint8, junk string, ops []byte) {
		capacity = capacity%8 + 1
		r := NewFlightRecorder(int(capacity))
		seen := 0 // the newest number a trace opened for
		for i := 0; i+1 < len(ops); i += 2 {
			var id string
			switch k, v := ops[i]%4, int(ops[i]/4); k {
			case 0:
				id = mint.Spell(mint.JobPrefix, seen+1)
			case 1:
				id = mint.Spell(mint.JobPrefix, v%(seen+1)+1)
			case 2:
				id = []string{"job-0", "job-+", "job-0", "job- "}[v%4] + strconv.Itoa(v%(seen+2))
			default:
				id = junk
			}
			s := Span{Job: id, Stage: fuzzStages[int(ops[i+1])%len(fuzzStages)], Class: "dev", Device: "p0",
				Start: time.Duration(i) * time.Second, End: time.Duration(i+1) * time.Second}
			n := mint.Number(mint.JobPrefix, id)
			_, held := r.Job(id)
			live0, done0 := r.Len()
			r.Observe(s)
			live, done := r.Len()
			if done > int(capacity) {
				t.Fatalf("op %d: %d terminal traces held, capacity %d", i/2, done, capacity)
			}
			if _, now := r.Job(id); !held && now {
				if s.Stage == StageBusy || s.Stage == StageIdle || n != seen+1 {
					t.Fatalf("op %d: %s span for %q opened a trace; the next unseen number is %d", i/2, s.Stage, id, seen+1)
				}
				seen = n
			} else if !held && live+done != live0+done0 {
				t.Fatalf("op %d: %s span for unheld %q moved the counts (%d,%d) → (%d,%d)", i/2, s.Stage, id,
					live0, done0, live, done)
			}
		}
		jobs := r.Jobs()
		if live, done := r.Len(); len(jobs) != live+done {
			t.Fatalf("Jobs() lists %d traces, Len says %d live + %d done", len(jobs), live, done)
		}
		for _, tr := range jobs {
			if mint.Number(mint.JobPrefix, tr.Job) == 0 || len(tr.Spans) == 0 {
				t.Fatalf("trace %q holds %d spans", tr.Job, len(tr.Spans))
			}
			for k, s := range tr.Spans {
				if s.Job != tr.Job || s.Stage == StageBusy || s.Stage == StageIdle {
					t.Fatalf("trace %q holds a %s span of %q", tr.Job, s.Stage, s.Job)
				}
				if s.Stage.Terminal() != (k == len(tr.Spans)-1 && tr.State != "") {
					t.Fatalf("trace %q (state %q): span %d of %d is %s", tr.Job, tr.State, k, len(tr.Spans), s.Stage)
				}
			}
		}
	})
}
