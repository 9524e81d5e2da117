package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/workload"
)

// traceLines splits a file into lines exactly as ReadTrace does.
func traceLines(data []byte) *bufio.Scanner {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return sc
}

// readTraceReference is ReadTrace as it stood before the record scanner:
// every record line through json.Unmarshal into a fresh Record, nothing
// pre-sized. It is the oracle for what ReadTrace accepts, returns and says.
func readTraceReference(data []byte) (*Trace, error) {
	sc := traceLines(data)
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
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("loadgen: parsing trace record %d: %w", len(t.Records), err)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: reading trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// sameRecord is reflect.DeepEqual plus the float bits, which tell -0 from 0.
func sameRecord(a, b Record) bool {
	return reflect.DeepEqual(a, b) &&
		math.Float64bits(a.ExpectedQPUSeconds) == math.Float64bits(b.ExpectedQPUSeconds) &&
		math.Float64bits(a.DeadlineSeconds) == math.Float64bits(b.DeadlineSeconds)
}

// checkScannerAgainstJSON is the per-line differential: a line the scanner
// accepts must be one json.Unmarshal accepts, with the same Record. It
// reports whether the scanner accepted.
func checkScannerAgainstJSON(t *testing.T, line []byte) bool {
	t.Helper()
	var got, want Record
	if !scanRecord(line, &got, make(map[string]string)) {
		return false
	}
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", line, err)
	}
	if !sameRecord(got, want) {
		t.Fatalf("scanner and encoding/json disagree on %q:\n scanner %+v\n json    %+v", line, got, want)
	}
	return true
}

// checkReadTraceAgainstReference holds ReadTrace to the reference reader on a
// whole file: the same error text, or the same trace. It returns ReadTrace's
// trace, nil when the file was refused.
func checkReadTraceAgainstReference(t *testing.T, data []byte) *Trace {
	t.Helper()
	got, gotErr := ReadTrace(bytes.NewReader(data))
	want, wantErr := readTraceReference(data)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("ReadTrace error %v, reference %v, on:\n%s", gotErr, wantErr, data)
	}
	if gotErr != nil {
		return nil
	}
	if got.Header != want.Header || len(got.Records) != len(want.Records) {
		t.Fatalf("ReadTrace read %+v with %d records, reference %+v with %d", got.Header, len(got.Records), want.Header, len(want.Records))
	}
	for i := range want.Records {
		if !sameRecord(got.Records[i], want.Records[i]) {
			t.Fatalf("record %d: ReadTrace %+v, reference %+v", i, got.Records[i], want.Records[i])
		}
	}
	return got
}

const canonicalRecordLine = `{"seq":3,"at_us":100,"user":"user-00","class":"production","pattern":"qc-heavy","qubits":2,"shots":60,"expected_qpu_seconds":60,"deadline_seconds":120.5}`

// TestRecordScannerMatchesEncodingJSON is the safety net under the record
// scanner: on every hostile line, scanner accepts ⇒ identical to
// json.Unmarshal, and — accepted or declined — ReadTrace over a file holding
// the line answers exactly as the reference reader does, error text included.
func TestRecordScannerMatchesEncodingJSON(t *testing.T) {
	// field replaces one `"key":value` of the canonical line.
	field := func(old, repl string) string {
		if !strings.Contains(canonicalRecordLine, old) {
			t.Fatalf("canonical line has no %s", old)
		}
		return strings.Replace(canonicalRecordLine, old, repl, 1)
	}
	cases := []struct {
		name, line string
		accept     bool
	}{
		{"canonical", canonicalRecordLine, true},
		{"no optional keys", `{"seq":0,"at_us":0,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1}`, true},
		{"reordered keys", `{"shots":7,"class":"test","expected_qpu_seconds":7,"user":"u","qubits":2,"at_us":9,"seq":1}`, true},
		{"duplicate key, last wins", field(`"shots":60`, `"shots":60,"user":"first","shots":61,"user":"second"`), true},
		{"fraction", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":0.1`), true},
		{"long fraction", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":12.333333333333333925452279800083`), true},
		{"18 digits", field(`"at_us":100`, `"at_us":999999999999999999`), true},
		{"18-digit float", field(`"deadline_seconds":120.5`, `"deadline_seconds":999999999999999999`), true},
		{"zero values", `{"seq":0,"at_us":0,"user":"","class":"","pattern":"","qubits":0,"shots":0,"expected_qpu_seconds":0,"deadline_seconds":0.0}`, true},
		{"punctuation in a string", field(`"user":"user-00"`, `"user":"a b,c:d}{e"`), true},

		{"escape", field(`"user":"user-00"`, `"user":"user\u002d00"`), false},
		{"escaped quote", field(`"user":"user-00"`, `"user":"a\"b"`), false},
		{"escaped key", field(`"seq":3`, `"se\u0071":3`), false},
		{"e-acute escaped", field(`"user":"user-00"`, `"user":"caf\u00e9"`), false},
		{"raw UTF-8", field(`"user":"user-00"`, `"user":"café"`), false},
		{"invalid UTF-8", field(`"user":"user-00"`, "\"user\":\"caf\xe9\""), false},
		{"control byte", field(`"user":"user-00"`, "\"user\":\"a\x01b\""), false},
		{"DEL", field(`"user":"user-00"`, "\"user\":\"a\x7fb\""), false},
		{"unknown key", field(`"qubits":2`, `"qubits":2,"note":"x"`), false},
		{"unknown key, nested value", field(`"qubits":2`, `"qubits":2,"extra":{"seq":9}`), false},
		{"case-variant key", field(`"seq":3`, `"Seq":3`), false},
		{"space after colon", strings.ReplaceAll(canonicalRecordLine, `":`, `": `), false},
		{"space after comma", strings.ReplaceAll(canonicalRecordLine, `,"`, `, "`), false},
		{"tab before brace", "\t" + canonicalRecordLine, false},
		{"trailing space", canonicalRecordLine + " ", false},
		{"exponent", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":1e3`), false},
		{"exponent on an int", field(`"shots":60`, `"shots":1e3`), false},
		{"leading zero", field(`"shots":60`, `"shots":01`), false},
		{"leading zero float", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":00.5`), false},
		{"minus zero int", field(`"shots":60`, `"shots":-0`), false},
		{"minus zero float", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":-0`), false},
		{"minus zero decimal", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":-0.0`), false},
		{"negative", field(`"at_us":100`, `"at_us":-1`), false},
		{"bare point", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":1.`), false},
		{"leading point", field(`"expected_qpu_seconds":60`, `"expected_qpu_seconds":.5`), false},
		{"plus sign", field(`"shots":60`, `"shots":+6`), false},
		{"19 digits", field(`"at_us":100`, `"at_us":1000000000000000000`), false},
		{"19-digit float", field(`"deadline_seconds":120.5`, `"deadline_seconds":1000000000000000000`), false},
		{"overflows int64", field(`"at_us":100`, `"at_us":9223372036854775808`), false},
		{"overflows int", field(`"shots":60`, `"shots":99999999999999999999`), false},
		{"overflows float64", field(`"deadline_seconds":120.5`, `"deadline_seconds":1`+strings.Repeat("0", 400)+`.5`), false},
		{"null number", field(`"shots":60`, `"shots":null`), false},
		{"null string", field(`"user":"user-00"`, `"user":null`), false},
		{"true", field(`"shots":60`, `"shots":true`), false},
		{"string for an int", field(`"seq":3`, `"seq":"3"`), false},
		{"number for a string", field(`"user":"user-00"`, `"user":7`), false},
		{"decimal for an int", field(`"shots":60`, `"shots":1.0`), false},
		{"array value", field(`"shots":60`, `"shots":[60]`), false},
		{"trailing comma", strings.TrimSuffix(canonicalRecordLine, "}") + ",}", false},
		{"double comma", field(`"qubits":2,`, `"qubits":2,,`), false},
		{"missing colon", field(`"qubits":2`, `"qubits"2`), false},
		{"missing value", field(`"qubits":2`, `"qubits":`), false},
		{"empty object", `{}`, false},
		{"empty key", `{"":1}`, false},
		{"truncated in a key", `{"seq":0,"at_us":5,"user":"u","cla`, false},
		{"truncated in a string", `{"seq":0,"at_us":5,"user":"u`, false},
		{"truncated in a number", `{"seq":0,"at_us":5`, false},
		{"truncated after a comma", `{"seq":0,`, false},
		{"open brace only", `{`, false},
		{"no closing brace", strings.TrimSuffix(canonicalRecordLine, "}"), false},
		{"two objects", canonicalRecordLine + canonicalRecordLine, false},
		{"junk after the object", canonicalRecordLine + "x", false},
		{"array", `[1]`, false},
		{"bare number", `7`, false},
		{"bare null", `null`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkScannerAgainstJSON(t, []byte(c.line)); got != c.accept {
				t.Fatalf("scanner accepted = %v, want %v, for %q", got, c.accept, c.line)
			}
			// Before a second record, so a partial write into the declined
			// line's slot would have to survive the fallback to go unseen.
			file := `{"format":"hpcqc-loadgen-trace","version":1,"jobs":2}` + "\n" + c.line + "\n" +
				`{"seq":9,"at_us":999999999999999999,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1}` + "\n"
			checkReadTraceAgainstReference(t, []byte(file))
		})
	}
}

// TestScannerKnowsEveryRecordField walks Record's json tags: each must be a
// key the scanner decodes into that field. A field added to the struct and
// not to scanRecord fails here, instead of sending every line of every trace
// down the encoding/json path.
func TestScannerKnowsEveryRecordField(t *testing.T) {
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		var value string
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			value = "41"
		case reflect.Float64:
			value = "41.5"
		case reflect.String:
			value = `"forty-one"`
		default:
			t.Fatalf("Record.%s is a %s: teach scanRecord and this test that kind", f.Name, f.Type.Kind())
		}
		line := []byte(`{"` + key + `":` + value + `}`)
		var rec Record
		if !scanRecord(line, &rec, make(map[string]string)) {
			t.Fatalf("scanRecord declines %s: Record.%s is not in its key switch", line, f.Name)
		}
		if reflect.ValueOf(rec).Field(i).IsZero() {
			t.Fatalf("scanRecord accepted %s but left Record.%s zero", line, f.Name)
		}
		checkScannerAgainstJSON(t, line)
	}
}

// TestCanonicalTracesNeverFallBack holds the property the scanner's speed
// rests on: every record line Trace.Write emits is canonical — for generated
// traces and for captures alike.
func TestCanonicalTracesNeverFallBack(t *testing.T) {
	files := make(map[string][]byte)
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.jsonl"))
	if err != nil || len(golden) != 5 { // three replay corpora, two importer goldens
		t.Fatalf("found %d golden traces (%v), want 5", len(golden), err)
	}
	for _, path := range golden {
		if files[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	generated, err := Generate(Config{Seed: 3, Horizon: 2 * time.Hour, Process: &Poisson{RatePerHour: 600},
		Deadlines: workload.DefaultDeadlines()})
	if err != nil {
		t.Fatal(err)
	}
	captured, err := GenerateClosedLoop(ClosedLoopConfig{Seed: 11, Horizon: 2 * time.Hour, Users: 4, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A recorder at a shot rate that makes the duration hint fractional.
	rec := NewRecorder(3)
	for i := 0; i < 5; i++ {
		ev := arrivalEvent(i, int64(i)*1_000_000)
		ev.Job.ExpectedQPUSeconds = float64(i+1) / 3
		rec.Observe(ev)
	}
	for name, tr := range map[string]*Trace{
		"gen --deadlines":            generated,
		"closed-loop capture":        captured,
		"recorder, fractional hints": rec.Trace(1, "unit", int64(time.Hour/time.Microsecond)),
	} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		files[name] = buf.Bytes()
	}

	for name, data := range files {
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("%s: no record lines", name)
		}
		for i, line := range lines[1:] {
			if !checkScannerAgainstJSON(t, line) {
				t.Fatalf("%s: record %d falls back to encoding/json: %s", name, i, line)
			}
		}
		checkReadTraceAgainstReference(t, data)
	}
}

// TestReadTraceDistrustsHeaderCount: the header's job count sizes nothing
// beyond a fixed cap, so a count no file could back is a Validate error —
// not a makeslice panic, not gigabytes reserved before the first record.
func TestReadTraceDistrustsHeaderCount(t *testing.T) {
	for _, jobs := range []string{"1000000000000000", "200000000"} {
		data := []byte(`{"format":"hpcqc-loadgen-trace","version":1,"jobs":` + jobs + `}` + "\n" +
			`{"seq":0,"at_us":5,"user":"u","class":"dev","qubits":2,"shots":1,"expected_qpu_seconds":1}` + "\n")
		_, err := ReadTrace(bytes.NewReader(data))
		if want := "loadgen: header says " + jobs + " jobs, file has 1"; err == nil || err.Error() != want {
			t.Fatalf("jobs=%s: error %v, want %q", jobs, err, want)
		}
	}
}
