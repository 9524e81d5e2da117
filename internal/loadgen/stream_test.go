package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// streamFixture is a small canonical trace file, split into its header and
// record lines, for the stream tests to damage one line at a time.
func streamFixture(t *testing.T) (tr *Trace, header string, records []string) {
	t.Helper()
	tr, err := Generate(Config{Seed: 4, Horizon: 20 * time.Minute, Process: &Poisson{RatePerHour: 90}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < 12 {
		t.Fatalf("trace has %d records, the table damages record 10", len(tr.Records))
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	return tr, lines[0], lines[1:]
}

// traceFile joins a header and record lines into a file.
func traceFile(header string, records ...string) []byte {
	return []byte(header + "\n" + strings.Join(records, "\n") + "\n")
}

// replaced returns records with line i swapped for line.
func replaced(records []string, i int, line string) []string {
	out := append([]string(nil), records...)
	out[i] = line
	return out
}

// checkStreamAgainstReadTrace holds the streaming consumers — ReplayReader
// and ScanTrace — to ReadTrace on one file: both refuse exactly what
// ReadTrace refuses, and when ReadTrace accepts, ScanTrace hands over its
// records and ReplayReader answers as Replay does: the same report bytes or
// the same error. sameText also demands ReadTrace's error text, which holds
// for a file with one defect. A file whose records ask for more than a day,
// eight qubits or 10⁴ shots is read, not replayed: the replay itself is the
// same code as Replay's, and such jobs only cost the fuzzer time and memory.
// It returns ReplayReader's error.
func checkStreamAgainstReadTrace(t *testing.T, data []byte, sameText bool) error {
	t.Helper()
	tr, readErr := ReadTrace(bytes.NewReader(data))
	var scanned []Record
	replayable := true
	header, scanErr := ScanTrace(bytes.NewReader(data), func(r *Record) {
		scanned = append(scanned, *r)
		replayable = replayable && r.AtUS <= 24*3600e6 && r.Qubits <= 8 && r.Shots <= 1e4
	})
	if (scanErr == nil) != (readErr == nil) || (sameText && scanErr != nil && scanErr.Error() != readErr.Error()) {
		t.Fatalf("ScanTrace error %v, ReadTrace %v, on:\n%s", scanErr, readErr, data)
	}
	if readErr == nil {
		if header != tr.Header || len(scanned) != len(tr.Records) {
			t.Fatalf("ScanTrace read %+v with %d records, ReadTrace %+v with %d", header, len(scanned), tr.Header, len(tr.Records))
		}
		for i := range scanned {
			if !sameRecord(scanned[i], tr.Records[i]) {
				t.Fatalf("record %d: ScanTrace %+v, ReadTrace %+v", i, scanned[i], tr.Records[i])
			}
		}
		replayable = replayable && tr.Header.HorizonUS <= 24*3600e6
	}
	if !replayable {
		return scanErr
	}
	cfg := ReplayConfig{Devices: 2, Seed: 1, Tracing: true}
	got, gotErr := ReplayReader(bytes.NewReader(data), cfg)
	if readErr != nil {
		if gotErr == nil || (sameText && gotErr.Error() != readErr.Error()) {
			t.Fatalf("ReplayReader error %v, ReadTrace %v, on:\n%s", gotErr, readErr, data)
		}
		return gotErr
	}
	want, wantErr := Replay(tr, cfg)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("ReplayReader error %v, Replay %v, on:\n%s", gotErr, wantErr, data)
	}
	if gotErr == nil && !bytes.Equal(marshalReport(t, got), marshalReport(t, want)) {
		t.Fatalf("ReplayReader report differs from Replay's\n streamed: %s\n in memory: %s", marshalReport(t, got), marshalReport(t, want))
	}
	return gotErr
}

// TestReplayReaderErrors: a defect anywhere in the file — the header, a
// record, the count at either end — ends the streamed replay with ReadTrace's
// own error and no report, and a file ReadTrace accepts replays to Replay's
// report.
func TestReplayReaderErrors(t *testing.T) {
	tr, header, records := streamFixture(t)
	n := len(records)
	withJobs := func(jobs string) string {
		return strings.Replace(header, `"jobs":`+strconv.Itoa(n), `"jobs":`+jobs, 1)
	}
	line := func(edit func(*Record)) string {
		rec := tr.Records[10]
		edit(&rec)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	bad := line(func(r *Record) { r.Shots = 0 })
	hint := line(func(r *Record) { r.ExpectedQPUSeconds = -5 })
	whole := traceFile(header, records...)
	for _, tc := range []struct {
		name string
		data []byte
		want string // ReadTrace's error, "" when the file replays
	}{
		{"well-formed", whole, ""},
		{"bad header", traceFile(`{"format":"hpcqc-loadgen-trace","version":`, records...),
			"loadgen: parsing trace header: unexpected end of JSON input"},
		{"foreign header", traceFile(strings.Replace(header, TraceFormat, "csv", 1), records...),
			`loadgen: not a trace file (format "csv")`},
		{"short file", whole[:len(whole)-20],
			"loadgen: parsing trace record " + strconv.Itoa(n-1) + ": unexpected end of JSON input"},
		{"extra record", traceFile(header, append(records, records[n-1])...),
			"loadgen: header says " + strconv.Itoa(n) + " jobs, file has " + strconv.Itoa(n+1)},
		{"header overstates the count", traceFile(withJobs(strconv.Itoa(n+3)), records...),
			"loadgen: header says " + strconv.Itoa(n+3) + " jobs, file has " + strconv.Itoa(n)},
		{"header understates the count", traceFile(withJobs(strconv.Itoa(n-3)), records...),
			"loadgen: header says " + strconv.Itoa(n-3) + " jobs, file has " + strconv.Itoa(n)},
		{"header of no records", traceFile(withJobs("0"), records...),
			"loadgen: header says 0 jobs, file has " + strconv.Itoa(n)},
		{"bad record mid-file", traceFile(header, replaced(records, 10, bad)...),
			fmt.Sprintf("loadgen: record 10 has invalid shots=0 qubits=%d", tr.Records[10].Qubits)},
		{"negative duration hint", traceFile(header, replaced(records, 10, hint)...),
			"loadgen: record 10 has out-of-range duration hint -5"},
		{"unparsable record mid-file", traceFile(header, replaced(records, 10, `{"seq":10,`)...),
			"loadgen: parsing trace record 10: unexpected end of JSON input"},
		{"a line the fallback decodes", traceFile(header, replaced(records, 10, strings.ReplaceAll(records[10], `":`, `": `))...), ""},
		{"blank lines", bytes.ReplaceAll(whole, []byte("\n"), []byte("\n\n")), ""},
		{"header claiming 10^15 jobs", traceFile(withJobs("1000000000000000"), records...),
			"loadgen: header says 1000000000000000 jobs, file has " + strconv.Itoa(n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, readErr := ReadTrace(bytes.NewReader(tc.data))
			if got := errText(readErr); got != tc.want {
				t.Fatalf("ReadTrace error %q, want %q", got, tc.want)
			}
			if got := errText(checkStreamAgainstReadTrace(t, tc.data, true)); got != tc.want {
				t.Fatalf("ReplayReader error %q, want %q", got, tc.want)
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzReplayReader: the streamed replay succeeds exactly when ReadTrace and
// Replay do, and then its report is Replay's byte for byte; ScanTrace, the
// reader under `qcload info`, accepts exactly what ReadTrace accepts.
// `make fuzz-smoke` runs it for a fixed iteration count.
func FuzzReplayReader(f *testing.F) {
	for _, seed := range traceSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamAgainstReadTrace(t, data, false)
	})
}
