package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"hpcqc/internal/sched"
)

// The trace format is JSONL: a header object on the first line, then one
// record object per arrival, sorted by arrival time. Versioning the header
// lets the format grow (new record fields are ignored by old readers via
// encoding/json's default behaviour; incompatible changes bump Version).
const (
	// TraceFormat tags the header so unrelated JSONL files fail fast.
	TraceFormat = "hpcqc-loadgen-trace"
	// TraceVersion is the current format revision.
	TraceVersion = 1
)

// TraceHeader is the first line of a trace file.
type TraceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Mode is "generated" (synthesized open-loop) or "recorded" (captured
	// from a live daemon run, e.g. closed-loop).
	Mode string `json:"mode"`
	// Process names the arrival process for generated traces.
	Process string `json:"process,omitempty"`
	// Seed is the generation seed (provenance; replay takes its own seed).
	Seed int64 `json:"seed"`
	// HorizonUS is the trace length in microseconds of simulation time.
	HorizonUS int64 `json:"horizon_us"`
	// Jobs is the record count, a cheap integrity check on read.
	Jobs int `json:"jobs"`
}

// Horizon returns the trace length as a duration.
func (h TraceHeader) Horizon() time.Duration { return time.Duration(h.HorizonUS) * time.Microsecond }

// Record is one arrival: who submits what, when. Arrival times are integer
// microseconds from the trace epoch so round-tripping through JSON is exact —
// the foundation of bit-identical replay.
type Record struct {
	Seq     int    `json:"seq"`
	AtUS    int64  `json:"at_us"`
	User    string `json:"user"`
	Class   string `json:"class"`
	Pattern string `json:"pattern,omitempty"`
	// Qubits and Shots parameterize the canonical replay program; Shots
	// divided by the device shot rate is the job's QPU service time.
	Qubits int `json:"qubits"`
	Shots  int `json:"shots"`
	// ExpectedQPUSeconds is the duration hint handed to the scheduler.
	ExpectedQPUSeconds float64 `json:"expected_qpu_seconds"`
	// DeadlineSeconds is the job's completion deadline relative to its
	// arrival, 0 (omitted) when the job carries none. Traces without
	// deadlines round-trip byte-identically to the pre-deadline format.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// At returns the arrival instant as a clock offset.
func (r Record) At() time.Duration { return time.Duration(r.AtUS) * time.Microsecond }

// ParsedClass is sched.ParseClass of the record's class name, the error
// naming the record.
func (r Record) ParsedClass() (sched.Class, error) {
	class, err := sched.ParseClass(r.Class)
	if err != nil {
		return 0, fmt.Errorf("loadgen: record %d has unknown class %q", r.Seq, r.Class)
	}
	return class, nil
}

// Trace is a parsed trace: header plus records in arrival order.
type Trace struct {
	Header  TraceHeader
	Records []Record
}

// Validate checks internal consistency: header identity, record count,
// monotone arrival times and sane job parameters.
func (t *Trace) Validate() error {
	if t.Header.Format != TraceFormat {
		return fmt.Errorf("loadgen: not a trace file (format %q)", t.Header.Format)
	}
	if t.Header.Version != TraceVersion {
		return fmt.Errorf("loadgen: unsupported trace version %d (supported: %d)", t.Header.Version, TraceVersion)
	}
	if t.Header.Jobs != len(t.Records) {
		return fmt.Errorf("loadgen: header says %d jobs, file has %d", t.Header.Jobs, len(t.Records))
	}
	prev := int64(0)
	for i, r := range t.Records {
		if r.AtUS < prev {
			return fmt.Errorf("loadgen: record %d arrives at %dus, before its predecessor %dus", i, r.AtUS, prev)
		}
		prev = r.AtUS
		if r.Shots <= 0 || r.Qubits < 1 {
			return fmt.Errorf("loadgen: record %d has invalid shots=%d qubits=%d", i, r.Shots, r.Qubits)
		}
		if r.DeadlineSeconds < 0 || math.IsNaN(r.DeadlineSeconds) || math.IsInf(r.DeadlineSeconds, 0) {
			return fmt.Errorf("loadgen: record %d has out-of-range deadline %g", i, r.DeadlineSeconds)
		}
		if _, err := r.ParsedClass(); err != nil {
			return err
		}
		if _, err := sched.ParsePattern(r.Pattern); err != nil {
			return err
		}
	}
	return nil
}

// Write serializes the trace as JSONL.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Header); err != nil {
		return fmt.Errorf("loadgen: writing trace header: %w", err)
	}
	for i := range t.Records {
		if err := enc.Encode(t.Records[i]); err != nil {
			return fmt.Errorf("loadgen: writing trace record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteFile writes the trace to a path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("loadgen: creating trace file: %w", err)
	}
	if err := t.Write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// maxPresizeRecords bounds what ReadTrace reserves on the header's word
// alone (≈12 MB): a longer trace grows by append, and a header that lies about
// its count costs a Validate error instead of the allocation it names.
const maxPresizeRecords = 1 << 17

// ReadTrace parses and validates a JSONL trace. Record lines in the form
// Trace.Write emits are decoded by scanRecord; every other line
// goes to encoding/json, which alone defines what is accepted and every error.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("loadgen: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("loadgen: empty trace file")
	}
	t := &Trace{}
	if err := json.Unmarshal(sc.Bytes(), &t.Header); err != nil {
		return nil, fmt.Errorf("loadgen: parsing trace header: %w", err)
	}
	if t.Header.Jobs > 0 {
		t.Records = make([]Record, 0, min(t.Header.Jobs, maxPresizeRecords))
	}
	// user, class and pattern repeat: the records of one read share one
	// string per distinct value.
	intern := make(map[string]string)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		t.Records = append(t.Records, Record{})
		rec := &t.Records[len(t.Records)-1]
		if scanRecord(line, rec, intern) {
			continue
		}
		*rec = Record{}
		if err := json.Unmarshal(line, rec); err != nil {
			return nil, fmt.Errorf("loadgen: parsing trace record %d: %w", len(t.Records)-1, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: reading trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// scanRecord decodes a canonical record line into rec without reflection and
// reports whether it did. Canonical means: one object, no whitespace, only
// Record's nine keys spelled exactly (any order, the last duplicate wins),
// string values of printable ASCII with no escape, numbers as plain
// non-negative decimals of at most 18 integer digits with no leading zero and
// no exponent, and integers where the field is one. Those are the lines on
// which the result provably equals json.Unmarshal's; on anything else it
// returns false, having possibly written part of rec, and the caller decodes
// the line with encoding/json instead (DESIGN §6).
func scanRecord(line []byte, rec *Record, intern map[string]string) bool {
	if len(line) == 0 || line[0] != '{' {
		return false
	}
	for i := 1; ; i++ {
		if i >= len(line) || line[i] != '"' {
			return false
		}
		end := bytes.IndexByte(line[i+1:], '"')
		if end < 0 {
			return false
		}
		key := line[i+1 : i+1+end]
		i += end + 2
		if i >= len(line) || line[i] != ':' {
			return false
		}
		i++
		switch string(key) {
		case "seq":
			i = scanInt(line, i, &rec.Seq)
		case "at_us":
			rec.AtUS, i = scanDigits(line, i)
		case "user":
			rec.User, i = scanString(line, i, intern)
		case "class":
			rec.Class, i = scanString(line, i, intern)
		case "pattern":
			rec.Pattern, i = scanString(line, i, intern)
		case "qubits":
			i = scanInt(line, i, &rec.Qubits)
		case "shots":
			i = scanInt(line, i, &rec.Shots)
		case "expected_qpu_seconds":
			rec.ExpectedQPUSeconds, i = scanFloat(line, i)
		case "deadline_seconds":
			rec.DeadlineSeconds, i = scanFloat(line, i)
		default:
			return false
		}
		// Each value scanner returns the index after its value, 0 to decline.
		if i == 0 || i >= len(line) || (line[i] != ',' && line[i] != '}') {
			return false
		}
		if line[i] == '}' {
			return i+1 == len(line)
		}
	}
}

// scanDigits reads a plain non-negative integer of at most 18 digits (so it
// fits int64 and converts to float64 exactly as strconv would round it).
func scanDigits(line []byte, i int) (v int64, next int) {
	start := i
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		v = v*10 + int64(line[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || (n > 1 && line[start] == '0') {
		return 0, 0
	}
	return v, i
}

// scanInt is scanDigits into an int field; a value int cannot hold declines.
func scanInt(line []byte, i int, dst *int) (next int) {
	v, next := scanDigits(line, i)
	*dst = int(v)
	if int64(*dst) != v {
		return 0
	}
	return next
}

// scanFloat reads digits with an optional fraction; a fraction is parsed by
// the strconv call encoding/json makes.
func scanFloat(line []byte, i int) (float64, int) {
	v, next := scanDigits(line, i)
	if next == 0 || next >= len(line) || line[next] != '.' {
		return float64(v), next
	}
	end := next + 1
	for end < len(line) && line[end]-'0' <= 9 {
		end++
	}
	if f, err := strconv.ParseFloat(string(line[i:end]), 64); end > next+1 && err == nil {
		return f, end
	}
	return 0, 0
}

// scanString reads a string of printable ASCII with no escape, interned.
func scanString(line []byte, i int, intern map[string]string) (string, int) {
	if i >= len(line) || line[i] != '"' {
		return "", 0
	}
	start := i + 1
	for i = start; i < len(line); i++ {
		switch c := line[i]; {
		case c == '"':
			s, ok := intern[string(line[start:i])]
			if !ok {
				s = string(line[start:i])
				intern[s] = s
			}
			return s, i + 1
		case c < 0x20 || c >= 0x7f || c == '\\':
			return "", 0
		}
	}
	return "", 0
}

// ReadTraceFile reads a trace from a path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: opening trace: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}
