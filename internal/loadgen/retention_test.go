package loadgen

import (
	"bytes"
	"testing"
	"time"

	"hpcqc/internal/daemon"
)

// liveState is the high-water mark of everything a replay holds per job,
// sampled between clock events.
type liveState struct {
	jobTable    int // records in the daemon's job table
	deviceTasks int // largest per-device task table
	sessionJobs int // summed length of the sessions' Jobs lists
	tracked     int // the analyzer's non-terminal tracks
	inFlight    int // queued + running jobs in the daemon's table
}

// liveTracks counts the analyzer's non-terminal tracks, slot by slot.
func liveTracks(a *Analyzer) int {
	n := 0
	for i := 0; i < a.used; i++ {
		if !a.chunks[i/trackChunkSize][i%trackChunkSize].terminal {
			n++
		}
	}
	return n
}

// watchLiveState replays tr under cfg with a sampler riding the run's own
// clock (every period of simulation time, so it fires between events, with
// no daemon lock held). Each sample also checks the reclamation invariant:
// the analyzer's non-terminal tracks and the daemon's non-terminal records
// are the same set, i.e. no queued or running job was ever released. A
// device's task table is read through the tasks the daemon started on it:
// every task it mints is started, and one that reads unknown is forgotten
// for good.
func watchLiveState(t *testing.T, tr *Trace, cfg ReplayConfig, period time.Duration) (liveState, *Report) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	held := map[string][]string{} // device → tasks started and not yet seen forgotten
	cfg.JobListener = func(ev daemon.JobEvent) {
		if ev.Type == daemon.JobEventStarted {
			held[ev.Job.Device] = append(held[ev.Job.Device], ev.Job.DeviceTask)
		}
	}
	r, err := newReplayRun(tr.Header, tr.record, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peak liveState
	samples := 0
	var sample func()
	sample = func() {
		samples++
		inFlight := 0
		jobs := r.d.ListJobs()
		for _, j := range jobs {
			if j.State != daemon.JobQueued && j.State != daemon.JobRunning {
				continue
			}
			inFlight++
			if r.an.live(j.ID) == nil {
				t.Errorf("t=%s: %s is %s in the daemon but its track is terminal or gone", r.clk.Now(), j.ID, j.State)
			}
		}
		tracked := liveTracks(r.an)
		if inFlight != tracked {
			t.Errorf("t=%s: analyzer has %d non-terminal tracks, the daemon holds %d non-terminal records — a live job was released",
				r.clk.Now(), tracked, inFlight)
		}
		sessionJobs := 0
		for _, s := range r.sessions {
			sessionJobs += len(s.Jobs)
		}
		peak.jobTable = max(peak.jobTable, len(jobs))
		peak.sessionJobs = max(peak.sessionJobs, sessionJobs)
		peak.tracked = max(peak.tracked, tracked)
		peak.inFlight = max(peak.inFlight, inFlight)
		for _, dev := range r.d.Devices() {
			kept := held[dev.ID()][:0]
			for _, id := range held[dev.ID()] {
				if _, err := dev.TaskStatus(id); err == nil {
					kept = append(kept, id)
				}
			}
			held[dev.ID()] = kept
			peak.deviceTasks = max(peak.deviceTasks, len(kept))
		}
		if submitted, terminal := r.an.Counts(); terminal < submitted || submitted < len(tr.Records) {
			r.clk.Schedule(period, "live-state-sample", sample)
		}
	}
	r.clk.Schedule(period, "live-state-sample", sample)
	rep, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if samples < 100 {
		t.Fatalf("only %d samples: the sampler did not cover the run", samples)
	}
	return peak, rep
}

// checkConservation: every offered job is accounted for in exactly one
// terminal state.
func checkConservation(t *testing.T, tr *Trace, rep *Report) {
	t.Helper()
	if rep.Jobs != len(tr.Records) || rep.Completed+rep.Failed+rep.Cancelled+rep.Rejected != rep.Jobs || rep.SubmitErrors != 0 {
		t.Fatalf("job conservation: %d records, report %d jobs = %d completed + %d failed + %d cancelled + %d rejected, %d submit errors",
			len(tr.Records), rep.Jobs, rep.Completed, rep.Failed, rep.Cancelled, rep.Rejected, rep.SubmitErrors)
	}
}

// TestReplayLiveStateBounded is the retention invariant (DESIGN §5 INV-R1)
// on the path that used to leak: an unsaturated replay's per-job state —
// daemon job table, device task tables, session job lists, the analyzer's
// index — is bounded by jobs in flight plus the reclaim cadence, whatever
// the trace length. At the parent commit every one of these reads ≈ N.
func TestReplayLiveStateBounded(t *testing.T) {
	const devices = 4
	tr, err := Generate(Config{Seed: 21, Horizon: 140 * time.Hour, Process: &Poisson{RatePerHour: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 20000 {
		t.Fatalf("trace has %d jobs, want ≥ 20000", len(tr.Records))
	}
	cfg := ReplayConfig{Devices: devices, Seed: 3}
	peak, rep := watchLiveState(t, tr, cfg, 10*time.Minute)
	checkConservation(t, tr, rep)

	// Unsaturated: a handful of jobs are in flight at a time. slack is that
	// handful — bursts queue a few jobs behind the four running ones.
	const slack = 64
	if peak.inFlight > slack {
		t.Fatalf("peak in-flight %d: the trace is not unsaturated, the bounds below would not mean much", peak.inFlight)
	}
	for _, b := range []struct {
		what       string
		got, bound int
	}{
		{"daemon job table", peak.jobTable, reclaimEvery + slack},
		{"largest device task table", peak.deviceTasks, 1},
		// A list is compacted once over half of it is released, so it holds
		// at most twice the live records.
		{"session job lists", peak.sessionJobs, 2 * (reclaimEvery + slack)},
		{"analyzer non-terminal tracks", peak.tracked, slack},
	} {
		if b.got > b.bound {
			t.Errorf("%s peaked at %d over %d jobs, bound %d", b.what, b.got, len(tr.Records), b.bound)
		}
	}
	// The sampler and the mid-run reclamation are both invisible in the output.
	plain, err := Replay(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, rep), marshalReport(t, plain)) {
		t.Fatal("sampled replay's report differs from Replay's")
	}
}

// TestReplayBacklogIsKept is the saturated twin: one device, about 1.5×
// overloaded for two days, so the backlog grows to about half the trace.
// Reclamation must take terminal records only — every sample checks that no
// queued or running job left the table — while the finished half does
// leave it, and every job still reaches the report.
func TestReplayBacklogIsKept(t *testing.T) {
	tr, err := Generate(Config{Seed: 22, Horizon: 48 * time.Hour, Process: &Poisson{RatePerHour: 150}})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheduler := range []string{"fifo", "fair-share"} {
		peak, rep := watchLiveState(t, tr, ReplayConfig{Devices: 1, Scheduler: scheduler, Seed: 3}, 30*time.Minute)
		checkConservation(t, tr, rep)
		if rep.Completed != len(tr.Records) {
			t.Errorf("%s: %d of %d jobs completed", scheduler, rep.Completed, len(tr.Records))
		}
		if peak.inFlight < len(tr.Records)/5 {
			t.Fatalf("%s: peak backlog %d of %d jobs: the twin is not saturated", scheduler, peak.inFlight, len(tr.Records))
		}
		// The table follows the backlog, not the trace. Beyond the in-flight
		// jobs it holds at most one cadence of terminal records while jobs
		// arrive; what finishes during the final drain waits for the
		// end-of-run Release, by which time the backlog has shrunk by as much.
		if bound := peak.inFlight + reclaimEvery + 64; peak.jobTable > bound || bound > len(tr.Records)*3/4 {
			t.Errorf("%s: job table peaked at %d of %d jobs, bound %d (peak backlog %d)",
				scheduler, peak.jobTable, len(tr.Records), bound, peak.inFlight)
		}
	}
}
