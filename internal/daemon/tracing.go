package daemon

// Span emission for the submit pipeline. The daemon reports simulation-time
// trace.Span values through Config.SpanListener (and into Config.Flight) the
// same way it reports JobEvents through Config.JobListener: by value, inside
// the world, nil-guarded so the tracing-off hot path pays a single pointer
// check per emission site.
//
// Span timeline per job:
//
//	validate ─ admission ─ route      instantaneous pipeline decisions in
//	                                  pure replay (the clock does not advance
//	                                  inside Submit); annotated with the
//	                                  policy verdicts
//	queued / requeued                 the wait: queue entry → dispatch
//	dispatch                          instant hand-off mark (device task ID)
//	execute                           one run segment per (re)start
//	completed/failed/cancelled/
//	rejected/preempted/requeue        instant lifecycle marks
//
// Partitions additionally emit busy/idle occupancy spans at every running-slot
// transition, which is what gives the Chrome export its per-partition tracks.

import (
	"slices"

	"hpcqc/internal/admission"
	"hpcqc/internal/trace"
)

// emitSpan forwards one span to the wired listener tee (Config.SpanListener
// and Config.Flight), inside the world — the trace.Listener contract forbids
// calling back into the daemon.
func (d *Daemon) emitSpan(s trace.Span) {
	if d.span != nil {
		d.span(s)
	}
}

// traced reports whether any span consumer is attached; emission sites use it
// to skip clock reads and span assembly entirely when tracing is off.
func (d *Daemon) traced() bool { return d.span != nil }

// waitStage distinguishes a job's first wait from post-preemption waits, so
// the stage-latency report can attribute preemption-induced queueing.
func waitStage(j *Job) trace.Stage {
	if j.Preemptions > 0 {
		return trace.StageRequeued
	}
	return trace.StageQueued
}

// admissionDetail renders the admission span's policy annotation:
// "<policy> <outcome>", with the rationale appended for non-plain verdicts.
// The reason-less outcomes are interned once per daemon (the policy name is
// fixed at construction) so the accept path emits without building a string,
// and a PipelineSpansOnly stream — an aggregating listener, which reads no
// detail — always carries the interned form.
func (d *Daemon) admissionDetail(dec admission.Decision) string {
	if dec.Reason == "" || d.cfg.PipelineSpansOnly {
		if i := slices.Index(internedOutcomes[:], dec.Outcome); i >= 0 {
			return d.admitDetails[i]
		}
	}
	det := d.admitter.Name() + " " + string(dec.Outcome)
	if dec.Reason != "" {
		det += ": " + dec.Reason
	}
	return det
}

// internedOutcomes are the outcomes whose reason-less annotation is
// interned, the common one first: a scan of three finds it sooner than a
// string-keyed map would.
var internedOutcomes = [...]admission.Outcome{admission.Accepted, admission.Downgraded, admission.Rejected}

// internAdmissionDetails precomputes the reason-less annotation per outcome.
func (d *Daemon) internAdmissionDetails() {
	for i, o := range internedOutcomes {
		d.admitDetails[i] = d.admitter.Name() + " " + string(o)
	}
}

// terminalMark maps a terminal job state to its lifecycle mark.
func terminalMark(s JobState) trace.Stage {
	switch s {
	case JobCompleted:
		return trace.MarkCompleted
	case JobFailed:
		return trace.MarkFailed
	case JobCancelled:
		return trace.MarkCancelled
	case JobRejected:
		return trace.MarkRejected
	}
	return trace.Stage(s)
}
