package daemon

// Span emission for the submit pipeline. The daemon reports simulation-time
// trace.Span values through Config.SpanListener (and into Config.Flight) the
// same way it reports JobEvents through Config.JobListener: by value, under
// whatever locks the transition holds, nil-guarded so the tracing-off hot
// path pays a single pointer check per emission site.
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
	"hpcqc/internal/admission"
	"hpcqc/internal/trace"
)

// emitSpan forwards one span to the wired listener tee (Config.SpanListener
// and Config.Flight). Callers may hold d.mu or a deviceState mutex — the
// trace.Listener contract forbids calling back into the daemon.
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
// The common reason-less outcomes are interned once per daemon (the policy
// name is fixed at construction) so the accept path emits without building
// a string.
func (d *Daemon) admissionDetail(dec admission.Decision) string {
	if dec.Reason == "" {
		if det, ok := d.admitDetails[dec.Outcome]; ok {
			return det
		}
	}
	det := d.admitter.Name() + " " + string(dec.Outcome)
	if dec.Reason != "" {
		det += ": " + dec.Reason
	}
	return det
}

// internAdmissionDetails precomputes the reason-less annotation per outcome.
func (d *Daemon) internAdmissionDetails() {
	d.admitDetails = make(map[admission.Outcome]string, 3)
	for _, o := range []admission.Outcome{admission.Accepted, admission.Downgraded, admission.Rejected} {
		d.admitDetails[o] = d.admitter.Name() + " " + string(o)
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
