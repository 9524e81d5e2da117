package loadgen

import (
	"bytes"
	"strings"
	"testing"
)

// swfFixture is a small hand-written SWF log: header comments, one job per
// line, 18 fields, -1 for unknowns — the Parallel Workloads Archive shape.
const swfFixture = `; SWF fixture for the importer round-trip test
; Computer: UnitTest Cluster
;
1    0   10   30  4 -1 -1  4   60 -1 1  7 1 1 1 1 -1 -1
2   60    5   45  2 -1 -1  2   60 -1 1  8 1 1 2 1 -1 -1
3  120    0    0  1 -1 -1  1   90 -1 1  9 1 1 3 1 -1 -1
4  110    0   20  1 -1 -1  1   30 -1 1  7 1 1 9 1 -1 -1
5   -1    0   20  1 -1 -1  1   30 -1 1  7 1 1 1 1 -1 -1
6  200    0   -1  1 -1 -1  1   -1 -1 0  7 1 1 1 1 -1 -1
`

func TestImportSWFRoundTrip(t *testing.T) {
	tr, err := ImportSWF(strings.NewReader(swfFixture), ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 5 (negative submit) and 6 (no usable time) are skipped; job 4
	// arrives before job 3 and must be sorted into place.
	if tr.Header.Jobs != 4 || tr.Header.Mode != "imported" || tr.Header.Process != "swf" {
		t.Fatalf("header = %+v", tr.Header)
	}
	if tr.Records[2].AtUS != 110*1e6 || tr.Records[3].AtUS != 120*1e6 {
		t.Fatalf("arrivals not sorted: %+v", tr.Records)
	}
	// Queue 1 → production, 2 → test, else dev; run time (field 4) is the
	// service, falling back to requested time (field 9) when missing.
	if tr.Records[0].Class != "production" || tr.Records[0].Shots != 30 {
		t.Fatalf("record 0 = %+v", tr.Records[0])
	}
	if tr.Records[1].Class != "test" || tr.Records[1].Shots != 45 {
		t.Fatalf("record 1 = %+v", tr.Records[1])
	}
	if tr.Records[3].Class != "dev" || tr.Records[3].Shots != 90 {
		t.Fatalf("record 3 (requested-time fallback) = %+v", tr.Records[3])
	}
	if tr.Records[0].User != "user-7" {
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

	// The imported trace replays like any generated one.
	rep, err := Replay(tr, ReplayConfig{Devices: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 4 {
		t.Fatalf("imported replay completed %d/4", rep.Completed)
	}
}

func TestImportSWFOptions(t *testing.T) {
	tr, err := ImportSWF(strings.NewReader(swfFixture), ImportOptions{ServiceScale: 0.1, MaxJobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Jobs != 3 {
		t.Fatalf("max-jobs cap ignored: %d jobs", tr.Header.Jobs)
	}
	if tr.Records[0].Shots != 3 {
		t.Fatalf("service scale ignored: %d shots", tr.Records[0].Shots)
	}
	// The cap keeps the earliest N arrivals: job 4 (110 s) beats job 3
	// (120 s) despite appearing later in the file.
	if tr.Records[2].AtUS != 110*1e6 {
		t.Fatalf("cap applied in file order, last arrival at %dus", tr.Records[2].AtUS)
	}
}

// TestImportSWFErrors pins every error the SWF importer can return, text
// included (recorded before the importers were given one tail).
func TestImportSWFErrors(t *testing.T) {
	for _, c := range []struct{ what, in, want string }{
		{"empty log", "; only comments\n", "loadgen: swf input has no usable jobs (0 skipped)"},
		{"truncated line", "1 2 3\n", "loadgen: swf line 1 has 3 fields, want ≥ 15"},
		{"non-numeric line", strings.Repeat("x ", 18) + "\n",
			`loadgen: swf line 1 field 2: strconv.ParseFloat: parsing "x": invalid syntax`},
		// A log whose only jobs are unusable is an error, not an empty trace.
		{"log with zero usable jobs", "1 -1 0 30 1 -1 -1 1 30 -1 1 7 1 1 1 1 -1 -1\n",
			"loadgen: swf input has no usable jobs (1 skipped)"},
	} {
		if _, err := ImportSWF(strings.NewReader(c.in), ImportOptions{}); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.what, err, c.want)
		}
	}
	_, err := ImportFile("testdata/no-such.swf", "swf", ImportOptions{})
	if want := "loadgen: opening swf: open testdata/no-such.swf: no such file or directory"; err == nil || err.Error() != want {
		t.Errorf("missing file: error %v, want %q", err, want)
	}
}
