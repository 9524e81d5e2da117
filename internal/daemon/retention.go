package daemon

import "hpcqc/internal/mint"

// Retention: how a terminal record leaves the job table. There is one rule,
// and one structure behind it, mint.Ring — the type every table of minted
// records shares (DESIGN §5 INV-R1). The job table is a ring indexed by the
// number each job's ID was minted from; finish appends every record it turns
// terminal to a finish-ordered ring; evict walks a finish ring from its
// oldest end down to a length to keep, and is the only code that drops a
// record from the table. A serving daemon runs it at every terminal
// transition with keep = Config.History, so the table holds the jobs in
// flight plus a bounded recent history; a replay driver's Release is the same
// walk with keep = 0. Queued and running records are on no finish ring, so
// neither path can evict one.
//
// There are two finish rings behind the one routine — jobs that went through
// dispatch (completed, failed, cancelled) and jobs shed at the door — because
// they fill at unrelated rates. Admission exists to absorb floods: a client
// hammering a closed door mints rejection records as fast as it can send
// requests, while results finish at the pace of the QPU. On a single ring the
// flood would push out completed jobs whose owners have not fetched the
// result yet; with a ring of its own it only ever displaces older rejections.

// job resolves a job ID to its record, nil if never minted or evicted: a
// number has one spelling, so "job-07" and "job-+7" name no job.
func (d *Daemon) job(id string) *Job { return d.jobs.At(mint.Number(mint.JobPrefix, id)) }

// evict drops the oldest records of a finish ring until keep remain: out of
// the job table, and out of the owning session's Jobs list (the record's own
// session, whether or not it has been closed since) — by amortized
// compaction, a list being rebuilt only once more than half of it is evicted,
// so a list is at most twice its live records and the whole walk is
// O(evicted) whatever the backlog. An evicted ID reads as an unknown job;
// counters and lifecycle events have already seen it. pool additionally
// recycles the records, which is safe only under Release's contract: the
// dispatch path may still hold a pointer to a record it has just finished.
func (d *Daemon) evict(r *mint.Ring[Job], keep int, pool bool) {
	for r.Len() > keep {
		j := r.Pop()
		d.jobs.Drop(j.seq)
		s := j.sess
		if s.released++; 2*s.released > len(s.Jobs) {
			kept := s.Jobs[:0]
			for _, id := range s.Jobs {
				if d.job(id) != nil {
					kept = append(kept, id)
				}
			}
			s.Jobs, s.released = kept, 0
		}
		if pool {
			*j = Job{} // drop result references before pooling
			jobPool.Put(j)
		}
	}
}

// Release evicts and pools every terminal record — eviction with nothing
// kept. Queued and running jobs are never touched, which is what makes it
// callable mid-run: the replay driver calls it between clock events at a
// fixed cadence so a long trace holds its in-flight jobs, not every job it
// has seen, and once more after extracting its report.
//
// It is safe only while no other daemon call is in progress and no caller
// holds *Job pointers obtained from this daemon — public accessors and
// RejectedError hand out copies, so a single-goroutine driver between events
// has that guarantee. A serving daemon never calls this; Config.History is
// its bound.
func (d *Daemon) Release() {
	d.evict(&d.finished, 0, true)
	d.evict(&d.rejected, 0, true)
}
