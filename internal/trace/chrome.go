package trace

import (
	"encoding/json"
	"io"
	"sort"

	"hpcqc/internal/mint"
)

// Chrome trace-event export: renders job traces and partition occupancy
// tracks in the Trace Event Format (the JSON that chrome://tracing, Perfetto
// and speedscope all open), so a replayed day of fleet traffic becomes a
// zoomable timeline — partitions as one process with a track (tid) per
// partition showing who occupied it, jobs as a second process with a track
// per job showing its pipeline walk.
//
// The export is deterministic: events are emitted in (process, track,
// timestamp) order from already-deterministic span streams, and encoding
// uses fixed struct field order — the same replay always produces the same
// bytes.

// chromeEvent is one Trace Event Format entry. Phases used: "M" (metadata:
// process/thread names), "X" (complete span with duration), "i" (instant).
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	// Ts and Dur are microseconds of simulation time (fractional to keep
	// sub-microsecond device timing exact).
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the JSON Object Format wrapper.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	chromePidPartitions = 1
	chromePidJobs       = 2
)

func usec(d int64) float64 { return float64(d) / 1e3 } // ns → µs

// WriteChrome writes the Trace Event Format JSON for a set of job traces and
// partition occupancy tracks (either may be empty). Jobs are ordered by
// numeric job-ID suffix when present (job-2 before job-10), else
// lexicographically; partitions by device ID.
func WriteChrome(w io.Writer, jobs []JobTrace, occupancy map[string][]Span) error {
	var events []chromeEvent
	meta := func(pid int, name string) {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]string{"name": name},
		})
	}
	threadMeta := func(pid, tid int, name string) {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]string{"name": name},
		})
	}

	// Partition occupancy: one track per device; busy slices named by the
	// occupant job, idle slices named "idle" so utilization gaps are visible
	// as explicit spans, not just absence.
	devices := make([]string, 0, len(occupancy))
	for dev := range occupancy {
		devices = append(devices, dev)
	}
	sort.Strings(devices)
	if len(devices) > 0 {
		meta(chromePidPartitions, "fleet partitions")
	}
	for tid, dev := range devices {
		threadMeta(chromePidPartitions, tid, dev)
		for _, s := range occupancy[dev] {
			name := string(s.Stage)
			if s.Stage == StageBusy && s.Job != "" {
				name = s.Job
			}
			dur := usec(int64(s.Dur()))
			events = append(events, chromeEvent{
				Name: name, Cat: "occupancy", Ph: "X",
				Ts: usec(int64(s.Start)), Dur: &dur,
				Pid: chromePidPartitions, Tid: tid,
				Args: occArgs(s),
			})
		}
	}

	// Job pipeline walks: one track per job.
	ordered := append([]JobTrace(nil), jobs...)
	sort.SliceStable(ordered, func(a, b int) bool {
		return jobOrderKey(ordered[a].Job, ordered[b].Job)
	})
	if len(ordered) > 0 {
		meta(chromePidJobs, "jobs")
	}
	for tid, t := range ordered {
		threadMeta(chromePidJobs, tid, t.Job)
		for _, s := range t.Spans {
			ev := chromeEvent{
				Name: string(s.Stage), Cat: "pipeline",
				Ts:  usec(int64(s.Start)),
				Pid: chromePidJobs, Tid: tid,
				Args: spanArgs(s),
			}
			if s.Instant() {
				ev.Ph, ev.S = "i", "t"
			} else {
				ev.Ph = "X"
				dur := usec(int64(s.Dur()))
				ev.Dur = &dur
			}
			events = append(events, ev)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func occArgs(s Span) map[string]string {
	if s.Job == "" && s.Class == "" {
		return nil
	}
	args := make(map[string]string, 2)
	if s.Job != "" {
		args["job"] = s.Job
	}
	if s.Class != "" {
		args["class"] = s.Class
	}
	return args
}

func spanArgs(s Span) map[string]string {
	if s.Class == "" && s.Device == "" && s.Detail == "" {
		return nil
	}
	args := make(map[string]string, 3)
	if s.Class != "" {
		args["class"] = s.Class
	}
	if s.Device != "" {
		args["device"] = s.Device
	}
	if s.Detail != "" {
		args["detail"] = s.Detail
	}
	return args
}

// jobOrderKey orders jobs by number, "job-2" before "job-10"; an ID no
// daemon minted reads as number 0, so such IDs come first, in text order.
func jobOrderKey(a, b string) bool {
	if na, nb := mint.Number(mint.JobPrefix, a), mint.Number(mint.JobPrefix, b); na != nb {
		return na < nb
	}
	return a < b
}
