package loadgen

import (
	"bytes"
	"strings"
	"testing"
)

// sacctFixture is a small hand-written `sacct --parsable2` export: header
// row, pipe-separated columns, sub-step rows, day-carrying durations and a
// Timelimit fallback — the shapes real Slurm accounting output takes.
const sacctFixture = `JobID|User|Partition|Submit|Elapsed|Timelimit|State
101|alice|production|2025-03-01T08:00:00|00:00:30|01:00:00|COMPLETED
101.batch|alice|production|2025-03-01T08:00:00|00:00:30||COMPLETED
101.0|alice|production|2025-03-01T08:00:00|00:00:29||COMPLETED
102|bob|testing|2025-03-01T08:01:00|00:00:45|01:00:00|COMPLETED
103|carol|gpu|2025-03-01T08:03:00|00:00:00|00:01:30|TIMEOUT
104|dave|batch|2025-03-01T08:02:50|1-00:00:20|2-00:00:00|COMPLETED
105|erin|batch|Unknown|00:05:00|01:00:00|CANCELLED
106|frank|batch|2025-03-01T08:05:00|00:00:00|INVALID|FAILED
`

func TestImportSacctRoundTrip(t *testing.T) {
	tr, err := ImportSacct(strings.NewReader(sacctFixture), ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Sub-step rows (101.batch, 101.0), the unparseable submit (105) and the
	// job with no usable time (106) are skipped; job 104 arrives before 103
	// and must be sorted into place; arrivals are rebased to the earliest
	// submit (08:00:00 → t=0).
	if tr.Header.Jobs != 4 || tr.Header.Mode != "imported" || tr.Header.Process != "sacct" {
		t.Fatalf("header = %+v", tr.Header)
	}
	if tr.Records[0].AtUS != 0 || tr.Records[2].AtUS != 170*1e6 || tr.Records[3].AtUS != 180*1e6 {
		t.Fatalf("arrivals not rebased/sorted: %+v", tr.Records)
	}
	// Partition names map to classes: "production" → production, "testing"
	// → test, "gpu"/"batch" → dev.
	if tr.Records[0].Class != "production" || tr.Records[0].Shots != 30 {
		t.Fatalf("record 0 = %+v", tr.Records[0])
	}
	if tr.Records[1].Class != "test" || tr.Records[1].Shots != 45 {
		t.Fatalf("record 1 = %+v", tr.Records[1])
	}
	// Day-carrying elapsed: 1-00:00:20 = 86420 s.
	if tr.Records[2].Class != "dev" || tr.Records[2].Shots != 86420 {
		t.Fatalf("record 2 (DD-HH:MM:SS elapsed) = %+v", tr.Records[2])
	}
	// Zero elapsed falls back to Timelimit (00:01:30 = 90 s).
	if tr.Records[3].Shots != 90 {
		t.Fatalf("record 3 (Timelimit fallback) = %+v", tr.Records[3])
	}
	if tr.Records[0].User != "alice" {
		t.Fatalf("record 0 user = %q", tr.Records[0].User)
	}

	// Round trip: write → read back → identical trace, identical rewrite.
	var b1 bytes.Buffer
	if err := tr.Write(&b1); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := back.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("trace round trip not byte-identical")
	}

	// The imported trace replays like any generated one (scaled down so the
	// day-long job does not dominate the drain).
	scaled, err := ImportSacct(strings.NewReader(sacctFixture), ImportOptions{ServiceScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(scaled, ReplayConfig{Devices: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("imported replay completed %d/4", rep.Completed)
	}
}

func TestImportSacctOptions(t *testing.T) {
	tr, err := ImportSacct(strings.NewReader(sacctFixture), ImportOptions{ServiceScale: 0.1, MaxJobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Jobs != 3 {
		t.Fatalf("max-jobs cap ignored: %d jobs", tr.Header.Jobs)
	}
	if tr.Records[0].Shots != 3 {
		t.Fatalf("service scale ignored: %d shots", tr.Records[0].Shots)
	}
	// The cap keeps the earliest N arrivals: job 104 (08:02:50) beats job
	// 103 (08:03:00) despite appearing later in the file.
	if tr.Records[2].AtUS != 170*1e6 {
		t.Fatalf("cap applied in file order, last arrival at %dus", tr.Records[2].AtUS)
	}
}

// TestImportSacctErrors pins every error the sacct importer can return, text
// included (recorded before the importers were given one tail).
func TestImportSacctErrors(t *testing.T) {
	for _, c := range []struct{ what, in, want string }{
		{"empty input", "", "loadgen: sacct input has no header row"},
		{"header missing Submit/Elapsed", "JobID|User|State\n1|a|COMPLETED\n",
			`loadgen: sacct header missing column Submit (have "JobID|User|State")`},
		// Malformed durations are hard errors, not skips.
		{"malformed elapsed", "JobID|Submit|Elapsed\n1|2025-03-01T08:00:00|n:o:t\n",
			`loadgen: sacct line 2 Elapsed: bad duration component "n"`},
		{"malformed timelimit", "JobID|Submit|Elapsed|Timelimit\n1|2025-03-01T08:00:00|00:00:00|x-1:00\n",
			`loadgen: sacct line 2 Timelimit: bad day count "x"`},
		{"row without JobID", "JobID|Submit|Elapsed\n|2025-03-01T08:00:00|00:01:00\n", "loadgen: sacct line 2 has no JobID"},
		// An export whose only jobs are unusable is an error, not an empty trace.
		{"export with zero usable jobs", "JobID|Submit|Elapsed\n1|Unknown|00:01:00\n2|2025-03-01T08:00:00|00:00:00\n",
			"loadgen: sacct input has no usable jobs (2 skipped)"},
	} {
		if _, err := ImportSacct(strings.NewReader(c.in), ImportOptions{}); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.what, err, c.want)
		}
	}
	_, err := ImportFile("testdata/no-such.sacct", "sacct", ImportOptions{})
	if want := "loadgen: opening sacct: open testdata/no-such.sacct: no such file or directory"; err == nil || err.Error() != want {
		t.Errorf("missing file: error %v, want %q", err, want)
	}
}
