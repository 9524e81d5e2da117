package daemon

// Retention: how a terminal record leaves the job table. There is one rule.
// finish appends every record it turns terminal to a finish-ordered ring;
// evict walks a ring from its oldest end down to a length to keep, and is
// the only code that deletes from d.jobs. A serving daemon runs it at every
// terminal transition with keep = Config.History, so the table
// holds the jobs in flight plus a bounded recent history; a replay driver's
// Release is the same walk with keep = 0. Queued and running records are on
// no ring, so neither path can evict one.
//
// There are two rings behind the one routine — jobs that went through
// dispatch (completed, failed, cancelled) and jobs shed at the door — because
// they fill at unrelated rates. Admission exists to absorb floods: a client
// hammering a closed door mints rejection records as fast as it can send
// requests, while results finish at the pace of the QPU. On a single ring the
// flood would push out completed jobs whose owners have not fetched the
// result yet; with a ring of its own it only ever displaces older rejections.

// finishRing is a FIFO of terminal records, oldest at head.
type finishRing struct {
	recs []*Job
	head int
}

func (r *finishRing) len() int { return len(r.recs) - r.head }

func (r *finishRing) push(j *Job) { r.recs = append(r.recs, j) }

// pop removes the oldest record. The consumed prefix is dropped once it is
// at least half the slice, so the backing array stays within a constant
// factor of the records retained.
func (r *finishRing) pop() *Job {
	j := r.recs[r.head]
	r.recs[r.head] = nil
	if r.head++; 2*r.head >= len(r.recs) {
		n := copy(r.recs, r.recs[r.head:])
		clear(r.recs[n:])
		r.recs, r.head = r.recs[:n], 0
	}
	return j
}

// evict drops the oldest records of a ring until keep remain: out of
// the job table, and out of the owning session's Jobs list — by amortized
// compaction, a list being rebuilt only once more than half of it is evicted,
// so a list is at most twice its live records and the whole walk is
// O(evicted) whatever the backlog. An evicted ID reads as an unknown job;
// counters and lifecycle events have already seen it. pool additionally
// recycles the records, which is safe only under Release's contract: the
// dispatch path may still hold a pointer to a record it has just finished.
func (d *Daemon) evict(r *finishRing, keep int, pool bool) {
	for r.len() > keep {
		j := r.pop()
		delete(d.jobs, j.ID)
		if s := d.sessions[j.Session]; s != nil {
			if s.released++; 2*s.released > len(s.Jobs) {
				kept := s.Jobs[:0]
				for _, id := range s.Jobs {
					if _, live := d.jobs[id]; live {
						kept = append(kept, id)
					}
				}
				s.Jobs, s.released = kept, 0
			}
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
