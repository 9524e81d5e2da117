package daemon

import (
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// idSpellings are the edge cases every ID lookup is fuzzed from: the
// canonical spelling, leading zeros, signs, spaces, non-ASCII digits, the
// other table's prefix, numbers at and past the int64 limit and past 18
// digits, and the bare prefix.
var idSpellings = []string{
	"", "job-", "job-0", "job-1", "job-2", "job-01", "job-001", "job-+1", "job--1", "job- 1", "job-1 ",
	"job-１", "job-٣", "job-1e1", "job-0x1", "JOB-1", "job_1", "job-9223372036854775807",
	"job-9223372036854775808", "job-18446744073709551617", "job-999999999999999999",
	"job-1000000000000000000", "qpu-task-1", "qpu-task-01", "qpu-task-+1", "qpu-task-", "qpu-task-１",
	"qpu-task-9223372036854775808", "qpu-task-99999999999999999999",
}

// FuzzJobLookup: whatever string reaches the daemon as a job ID, the lookup
// either finds the record whose ID is that string or reads it as unknown — it
// never finds another record ("job-07" is not job 7) and never panics. The
// table holds jobs queued, running, cancelled and finished, behind a prefix
// of evicted ones (History 2), so the ring has a moved base, holes and a
// dropped prefix.
func FuzzJobLookup(f *testing.F) {
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 1, TimingOnly: true})
	if err != nil {
		f.Fatal(err)
	}
	d, err := NewDaemon(Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "admin", History: 2})
	if err != nil {
		f.Fatal(err)
	}
	s, _ := d.OpenSession("alice")
	prog := payload(f, 30)
	for i := 0; i < 24; i++ {
		j, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassDev})
		if err != nil {
			f.Fatal(err)
		}
		if i%5 == 4 {
			_ = d.CancelJob(s.Token, j.ID, false)
		}
		if i < 16 {
			clk.Advance(20 * time.Second)
		}
	}
	listed := map[string]bool{}
	for _, j := range d.ListJobs() {
		listed[j.ID] = true
	}
	if len(listed) < 6 || listed["job-1"] || !listed["job-24"] {
		f.Fatalf("fixture table holds %v: want evicted, finished and queued records", listed)
	}
	for _, id := range idSpellings {
		f.Add(id)
	}
	for id := range listed { // a held record's number spelled every other way
		n := strings.TrimPrefix(id, "job-")
		for _, v := range []string{"job-0" + n, "job-+" + n, "job-" + n + " ", " " + id, "JOB-" + n} {
			f.Add(v)
		}
	}
	f.Fuzz(func(t *testing.T, id string) {
		j := d.job(id)
		if (j != nil) != listed[id] || j != nil && j.ID != id {
			t.Fatalf("job(%q) = %v; the table lists it: %v", id, j, listed[id])
		}
		if _, err := d.JobStatus(s.Token, id); (err == nil) != listed[id] {
			t.Fatalf("JobStatus(%q): %v; the table lists it: %v", id, err, listed[id])
		}
	})
}
