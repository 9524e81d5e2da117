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
	if err := t.Header.check(); err != nil {
		return err
	}
	if t.Header.Jobs != len(t.Records) {
		return countError(t.Header.Jobs, len(t.Records))
	}
	prev := int64(0)
	for i := range t.Records {
		if err := t.Records[i].check(i, prev); err != nil {
			return err
		}
		prev = t.Records[i].AtUS
	}
	return nil
}

// check is the header's identity: this reader's format and version.
func (h TraceHeader) check() error {
	if h.Format != TraceFormat {
		return fmt.Errorf("loadgen: not a trace file (format %q)", h.Format)
	}
	if h.Version != TraceVersion {
		return fmt.Errorf("loadgen: unsupported trace version %d (supported: %d)", h.Version, TraceVersion)
	}
	return nil
}

// countError is the refusal of a file whose record count is not its header's.
func countError(jobs, records int) error {
	return fmt.Errorf("loadgen: header says %d jobs, file has %d", jobs, records)
}

// check is Validate's rule for record i, which streamed reads apply too: it
// arrives no earlier than prev, its predecessor's arrival (0 for the first),
// and carries sane job parameters.
func (r *Record) check(i int, prev int64) error {
	if r.AtUS < prev {
		return fmt.Errorf("loadgen: record %d arrives at %dus, before its predecessor %dus", i, r.AtUS, prev)
	}
	if r.Shots <= 0 || r.Qubits < 1 {
		return fmt.Errorf("loadgen: record %d has invalid shots=%d qubits=%d", i, r.Shots, r.Qubits)
	}
	if !validSeconds(r.DeadlineSeconds) {
		return fmt.Errorf("loadgen: record %d has out-of-range deadline %g", i, r.DeadlineSeconds)
	}
	if !validSeconds(r.ExpectedQPUSeconds) {
		return fmt.Errorf("loadgen: record %d has out-of-range duration hint %g", i, r.ExpectedQPUSeconds)
	}
	if _, err := r.ParsedClass(); err != nil {
		return err
	}
	_, err := sched.ParsePattern(r.Pattern)
	return err
}

// validSeconds reports whether a per-job duration is finite and not negative.
func validSeconds(s float64) bool { return s >= 0 && !math.IsInf(s, 0) }

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

// ReadTrace parses and validates a JSONL trace: every line decoded first,
// the whole trace validated after.
func ReadTrace(r io.Reader) (*Trace, error) {
	rd, err := newTraceReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Header: rd.header}
	if t.Header.Jobs > 0 {
		t.Records = make([]Record, 0, min(t.Header.Jobs, maxPresizeRecords))
	}
	var rec Record
	for rd.next(&rec) {
		t.Records = append(t.Records, rec)
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// traceReader is the one line decoder under every trace read: the header
// line, then a record per non-empty line. Lines in the form Trace.Write emits
// go to scanRecord, every other to encoding/json, which alone defines what is
// accepted and every error.
type traceReader struct {
	header TraceHeader
	sc     *bufio.Scanner
	intern map[string]string // one string per distinct user, class, pattern
	read   int               // record lines decoded
	prev   int64             // the last checked record's arrival
	err    error             // why next stopped short of the end of the file
}

// newTraceReader reads and parses the header line.
func newTraceReader(r io.Reader) (*traceReader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("loadgen: reading trace header: %w", err)
		}
		return nil, fmt.Errorf("loadgen: empty trace file")
	}
	rd := &traceReader{sc: sc, intern: make(map[string]string)}
	if err := json.Unmarshal(sc.Bytes(), &rd.header); err != nil {
		return nil, fmt.Errorf("loadgen: parsing trace header: %w", err)
	}
	return rd, nil
}

// next decodes the next record line into rec, all of it, and reports whether
// it did: false at the end of the file or on an error, left in err.
func (rd *traceReader) next(rec *Record) bool {
	for rd.sc.Scan() {
		line := rd.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rd.read++
		if *rec = (Record{}); scanRecord(line, rec, rd.intern) {
			return true
		}
		*rec = Record{}
		if err := json.Unmarshal(line, rec); err != nil {
			rd.err = fmt.Errorf("loadgen: parsing trace record %d: %w", rd.read-1, err)
			return false
		}
		return true
	}
	if err := rd.sc.Err(); err != nil {
		rd.err = fmt.Errorf("loadgen: reading trace: %w", err)
	}
	return false
}

// end reads the rest of the file and holds its record count to the header's.
func (rd *traceReader) end() error {
	var rec Record
	for rd.next(&rec) {
	}
	if rd.err == nil && rd.read != rd.header.Jobs {
		rd.err = countError(rd.header.Jobs, rd.read)
	}
	return rd.err
}

// streamTrace opens a trace to be checked as it is read: the header now (and
// a header that promises no record against the file at once), each record in
// record, the count after the last. It refuses exactly what ReadTrace
// refuses, naming the first defect in file order.
func streamTrace(r io.Reader) (*traceReader, error) {
	rd, err := newTraceReader(r)
	if err == nil {
		err = rd.header.check()
	}
	if err == nil && rd.header.Jobs <= 0 {
		err = rd.end()
	}
	return rd, err
}

// record decodes and checks record i, the next in the file, into rec.
func (rd *traceReader) record(i int, rec *Record) error {
	if !rd.next(rec) {
		if rd.err == nil {
			return countError(rd.header.Jobs, i)
		}
		return rd.err
	}
	if err := rec.check(i, rd.prev); err != nil {
		return err
	}
	rd.prev = rec.AtUS
	if i == rd.header.Jobs-1 {
		return rd.end()
	}
	return nil
}

// ScanTrace reads a trace and hands fn each record, checked, as it is decoded,
// holding one at a time; the record is fn's for the call only. It refuses
// exactly what ReadTrace refuses.
func ScanTrace(r io.Reader, fn func(*Record)) (TraceHeader, error) {
	rd, err := streamTrace(r)
	if err != nil {
		return TraceHeader{}, err
	}
	var rec Record
	for i := 0; i < rd.header.Jobs; i++ {
		if err := rd.record(i, &rec); err != nil {
			return TraceHeader{}, err
		}
		fn(&rec)
	}
	return rd.header, nil
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
