// Package trace is the simulation-time span subsystem of the observability
// stack: every job walking the daemon's submit pipeline (admission → routing
// → queueing → dispatch) leaves a lifecycle trace of stage spans, and every
// fleet partition leaves busy/idle occupancy spans. Spans are deterministic —
// pure functions of the simulation clock and the schedule decisions, never of
// wall time — so a traced replay produces byte-identical spans across reruns,
// and tracing can stay on during determinism-gated sweeps.
//
// The package is deliberately free of daemon imports: the daemon emits
// trace.Span values through a Config.JobListener-style hook (by value, so the
// tracing-off path costs one nil check and the tracing-on path allocates
// nothing per emission), and consumers — the FlightRecorder ring buffer, the
// loadgen stage-latency analyzer, the Chrome trace-event exporter — live
// here.
package trace

import (
	"time"
)

// Stage names one segment of a job's pipeline walk (or one occupancy segment
// of a partition). Pipeline stages within a single submission decision
// (validate, admission, route, dispatch) are instantaneous in pure replay —
// the simulation clock does not advance inside Submit — but still carry the
// policy annotations; the wall of a job's life is spent in the wait and
// execute stages, which is exactly what stage-latency attribution decomposes.
type Stage string

const (
	// StageValidate covers program decode + spec validation at submit.
	StageValidate Stage = "validate"
	// StageAdmission covers the admission stage's deliberation; Detail
	// carries "policy outcome" (and the reason for non-accept outcomes).
	StageAdmission Stage = "admission"
	// StageRoute covers partition selection; Device is the chosen partition
	// and Detail the router policy.
	StageRoute Stage = "route"
	// StageQueued is the first wait: queue entry to first dispatch.
	StageQueued Stage = "queued"
	// StageRequeued is a post-preemption wait: requeue to re-dispatch. Kept
	// distinct from StageQueued so the report can say how much of the wait
	// p99 is preemption-induced.
	StageRequeued Stage = "requeued"
	// StageDispatch marks the hand-off to the device (instant; Detail is the
	// device task ID).
	StageDispatch Stage = "dispatch"
	// StageExecute is one run segment on a partition. A preempted job has
	// several, each annotated with how the segment ended.
	StageExecute Stage = "execute"

	// StageBusy and StageIdle are partition occupancy spans (Job carries the
	// occupant for busy spans, and is empty for idle spans).
	StageBusy Stage = "busy"
	StageIdle Stage = "idle"

	// Instant lifecycle marks (Start == End).
	MarkCompleted Stage = "completed"
	MarkFailed    Stage = "failed"
	MarkCancelled Stage = "cancelled"
	MarkRejected  Stage = "rejected"
	MarkPreempted Stage = "preempted"
	MarkRequeued  Stage = "requeue"
)

// Terminal reports whether the stage is a job-terminal mark — the signal the
// FlightRecorder uses to close a live trace and enter it in its finish ring.
func (s Stage) Terminal() bool {
	switch s {
	case MarkCompleted, MarkFailed, MarkCancelled, MarkRejected:
		return true
	}
	return false
}

// Span is one simulation-time segment of a job trace or a partition
// occupancy track. Spans are small values passed by value through listener
// hooks; emitting one allocates nothing.
type Span struct {
	// Job is the daemon job ID; empty for partition occupancy idle spans.
	Job string `json:"job,omitempty"`
	// Stage names the segment.
	Stage Stage `json:"stage"`
	// Class is the job's priority class name (empty on occupancy spans).
	Class string `json:"class,omitempty"`
	// Device is the fleet partition involved, when one is.
	Device string `json:"device,omitempty"`
	// Start and End are simulation-time offsets; Start == End is an instant
	// event (pipeline decisions, lifecycle marks).
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	// Detail carries the policy annotation: admission outcome and reason,
	// router name, device task ID, how an execute segment ended.
	Detail string `json:"detail,omitempty"`
}

// Dur is the span length in simulation time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Instant reports whether the span is a zero-length event.
func (s Span) Instant() bool { return s.End == s.Start }

// JobTrace is one job's assembled lifecycle: every span the daemon emitted
// for it, in emission order (which is simulation-time order).
type JobTrace struct {
	Job string `json:"job"`
	// Class and Device reflect the latest span carrying them (class changes
	// only via admission downgrade, device via cross-partition requeue).
	Class  string `json:"class,omitempty"`
	Device string `json:"device,omitempty"`
	// State is the terminal mark when the trace is complete ("" while live).
	State Stage  `json:"state,omitempty"`
	Spans []Span `json:"spans"`
	num   int    // the job's number, where a FlightRecorder files the trace
}

// Listener is the span hook signature — the Config.JobListener analogue for
// spans. Implementations must be fast and must not call back into the
// emitting daemon: spans are emitted inside its world (see simclock).
type Listener func(Span)

// Tee fans one span emission out to several listeners, skipping nils. Used to
// attach a flight recorder and an analyzer to the same daemon.
func Tee(ls ...Listener) Listener {
	// Compact once at wiring time so the per-span path has no nil checks.
	live := make([]Listener, 0, len(ls))
	for _, l := range ls {
		if l != nil {
			live = append(live, l)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(s Span) {
		for _, l := range live {
			l(s)
		}
	}
}
