package loadgen

import (
	"bytes"
	"reflect"
	"testing"
)

// The three fuzz targets cover every byte-stream entry point into the trace
// machinery: the native JSONL reader and the two HPC-log importers. They all
// enforce the same contract — a nil error means the returned trace is fully
// valid AND survives a Write→ReadTrace round-trip unchanged — so no
// malformed header, truncated record or out-of-range deadline can smuggle an
// inconsistent trace into replay. `make fuzz-smoke` runs each for a fixed
// iteration count in CI; `go test` always replays the seed corpus.

// checkTraceInvariants asserts the post-parse contract shared by all entry
// points: the trace validates, and serializing it reproduces it exactly.
func checkTraceInvariants(t *testing.T, tr *Trace) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("parser returned an invalid trace: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("writing a valid trace failed: %v", err)
	}
	rt, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading a written trace failed: %v", err)
	}
	if !reflect.DeepEqual(tr.Header, rt.Header) {
		t.Fatalf("header round-trip drift:\n%+v\n%+v", tr.Header, rt.Header)
	}
	if !reflect.DeepEqual(tr.Records, rt.Records) {
		t.Fatalf("record round-trip drift (%d vs %d records)", len(tr.Records), len(rt.Records))
	}
}

// traceSeeds is the seed corpus of the trace-file fuzz targets, FuzzReadTrace
// and FuzzReplayReader.
var traceSeeds = []string{
	// A well-formed two-record trace, exactly as Write produces it.
	`{"format":"hpcqc-loadgen-trace","version":1,"mode":"generated","seed":1,"horizon_us":3600000000,"jobs":2}
{"seq":0,"at_us":100,"user":"user-00","class":"production","pattern":"qc-heavy","qubits":2,"shots":60,"expected_qpu_seconds":60}
{"seq":1,"at_us":200,"user":"user-01","class":"dev","qubits":2,"shots":12,"expected_qpu_seconds":12,"deadline_seconds":120}
`,
	// A negative job count: refused by Validate like any count the lines
	// do not match.
	`{"format":"hpcqc-loadgen-trace","version":1,"mode":"recorded","jobs":-1}
{"seq":0,"at_us":5,"user":"u","class":"test","qubits":2,"shots":1,"expected_qpu_seconds":1}
`,
	// Malformed headers: wrong format tag, unsupported version, bare junk.
	`{"format":"not-a-trace","version":1,"jobs":0}`,
	`{"format":"hpcqc-loadgen-trace","version":99,"jobs":0}`,
	`{"format":`,
	``,
	// Truncated record line.
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":1}
{"seq":0,"at_us":5,"user":"u","cla`,
	// Deadline out of range, and non-monotone arrivals.
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":1}
{"seq":0,"at_us":5,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1,"deadline_seconds":-3}
`,
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":2}
{"seq":0,"at_us":50,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1}
{"seq":1,"at_us":10,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1}
`,
	// A duration hint below zero: refused like the deadline (-0 below is not).
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":1}
{"seq":0,"at_us":5,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":-5}
`,
	// A header whose job count no file could back (once a makeslice panic),
	// and an arrival before the epoch (−1 alone once passed Validate).
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":1000000000000000}`,
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":1}
{"seq":0,"at_us":-1,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1}
`,
	// Lines around the record scanner's edges: valid JSON it must decline,
	// near-JSON it must not accept.
	`{"format":"hpcqc-loadgen-trace","version":1,"jobs":3}
{"Seq":0, "at_us":1e1,"user":"caf\u00e9","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":0.5,"x":null}
{"seq":01,"at_us":20,"user":"u","class":"dev","qubits":2,"shots":1.0,"expected_qpu_seconds":1.,}
{"shots":1,"shots":2,"seq":2,"at_us":999999999999999999,"user":"u","class":"dev","qubits":2,"expected_qpu_seconds":-0}
`,
}

func FuzzReadTrace(f *testing.F) {
	for _, seed := range traceSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Differential against encoding/json, line by line and as a file:
		// whatever the scanner accepts decodes as json.Unmarshal would, and
		// ReadTrace answers as the all-encoding/json reader does.
		for sc := traceLines(data); sc.Scan(); {
			checkScannerAgainstJSON(t, sc.Bytes())
		}
		if tr := checkReadTraceAgainstReference(t, data); tr != nil {
			checkTraceInvariants(t, tr)
		}
	})
}

func FuzzImportSWF(f *testing.F) {
	// A small well-formed log with a header comment, in archive field layout.
	f.Add([]byte(`; Version: 2.2
; Computer: fuzz corpus
1 10 -1 120 -1 -1 -1 -1 240 -1 -1 7 -1 -1 1 -1 -1 -1
2 20 -1 -1 -1 -1 -1 -1 300 -1 -1 8 -1 -1 2 -1 -1 -1
3 15 -1 60 -1 -1 -1 -1 60 -1 -1 7 -1 -1 5 -1 -1 -1
`))
	// Too few fields.
	f.Add([]byte(`1 10 -1 120 -1 -1 -1 -1 240 -1 -1 7 -1 -1`))
	// Non-numeric field.
	f.Add([]byte(`1 ten -1 120 -1 -1 -1 -1 240 -1 -1 7 -1 -1 1`))
	// All records skipped: negative submit, no usable service time.
	f.Add([]byte(`1 -5 -1 120 -1 -1 -1 -1 240 -1 -1 7 -1 -1 1
2 10 -1 -1 -1 -1 -1 -1 -1 -1 -1 7 -1 -1 1
`))
	// Arrival-time overflow territory.
	f.Add([]byte(`1 9e18 -1 120 -1 -1 -1 -1 240 -1 -1 7 -1 -1 1`))
	f.Add([]byte(`1 nan -1 120 -1 -1 -1 -1 240 -1 -1 7 -1 -1 1`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ImportSWF(bytes.NewReader(data), ImportOptions{})
		if err != nil {
			return
		}
		checkTraceInvariants(t, tr)
	})
}

func FuzzImportSacct(f *testing.F) {
	// A well-formed export: header row, parent rows, skipped sub-steps.
	f.Add([]byte(`JobID|User|Partition|Submit|Elapsed|Timelimit|State
101|alice|prod|2026-01-02T10:00:00|00:02:00|01:00:00|COMPLETED
101.batch|alice|prod|2026-01-02T10:00:00|00:02:00||COMPLETED
102|bob|debug|2026-01-02T10:05:00|1-02:03:04|UNLIMITED|TIMEOUT
103|carol|gpu|2026-01-02T09:55:00|INVALID|00:30:00|CANCELLED
`))
	// Missing required column.
	f.Add([]byte(`JobID|User|Submit
101|alice|2026-01-02T10:00:00
`))
	// Malformed durations and timestamps.
	f.Add([]byte(`JobID|Submit|Elapsed
101|2026-01-02T10:00:00|xx:yy
`))
	f.Add([]byte(`JobID|Submit|Elapsed
101|not-a-time|00:02:00
`))
	// Truncated data row (fewer fields than the header).
	f.Add([]byte(`JobID|User|Partition|Submit|Elapsed
101|alice
`))
	// Empty JobID, and no usable jobs at all.
	f.Add([]byte(`JobID|Submit|Elapsed
|2026-01-02T10:00:00|00:02:00
`))
	f.Add([]byte(`JobID|Submit|Elapsed
101|2026-01-02T10:00:00|00:00:00
`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ImportSacct(bytes.NewReader(data), ImportOptions{})
		if err != nil {
			return
		}
		checkTraceInvariants(t, tr)
	})
}
