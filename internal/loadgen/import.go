package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// ImportOptions tunes the conversion of an archived scheduler log (SWF,
// sacct) into a trace.
type ImportOptions struct {
	// ServiceScale multiplies logged run times into QPU service seconds
	// (default 1.0). HPC batch jobs run hours; scaling them down lets a
	// month-long log exercise a QPU fleet at realistic relative load.
	ServiceScale float64
	// MaxJobs caps the imported record count (0 = no cap).
	MaxJobs int
}

// importer is what every log format shares: reading trimmed non-empty lines,
// turning (arrival, submitter, class, service seconds) into a record of the
// canonical replay program, and the tail that makes the records a valid
// trace. A format's parser keeps only its own field layout.
type importer struct {
	process string
	opts    ImportOptions
	sc      *bufio.Scanner
	line    int // 1-based number of the line last returned
	records []Record
	skipped int // rows dropped as unusable, reported when none is left
}

func newImporter(r io.Reader, process string, opts ImportOptions) *importer {
	if opts.ServiceScale <= 0 {
		opts.ServiceScale = 1.0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &importer{process: process, opts: opts, sc: sc}
}

// next returns the next non-empty line, trimmed; false at the end of input
// or on a read error, which finish reports.
func (im *importer) next() (string, bool) {
	for im.sc.Scan() {
		im.line++
		if text := strings.TrimSpace(im.sc.Text()); text != "" {
			return text, true
		}
	}
	return "", false
}

// add appends one job. The canonical replay program encodes the whole
// service demand in its shot count, at least one shot.
func (im *importer) add(atUS int64, user, class string, serviceSeconds float64) {
	shots := int(math.Round(serviceSeconds * im.opts.ServiceScale * canonicalShotRateHz))
	if shots < 1 {
		shots = 1
	}
	im.records = append(im.records, Record{
		AtUS:               atUS,
		User:               user,
		Class:              class,
		Qubits:             2,
		Shots:              shots,
		ExpectedQPUSeconds: float64(shots) / canonicalShotRateHz,
	})
}

// finish sorts the records by arrival (archived logs only almost guarantee
// submit order), caps them, numbers them and wraps them in a validated trace.
func (im *importer) finish() (*Trace, error) {
	if err := im.sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: reading %s: %w", im.process, err)
	}
	records := im.records
	if len(records) == 0 {
		return nil, fmt.Errorf("loadgen: %s input has no usable jobs (%d skipped)", im.process, im.skipped)
	}
	sort.SliceStable(records, func(a, b int) bool { return records[a].AtUS < records[b].AtUS })
	// Cap after sorting so --max-jobs keeps the earliest N arrivals even
	// when the log is not perfectly submit-ordered.
	if im.opts.MaxJobs > 0 && len(records) > im.opts.MaxJobs {
		records = records[:im.opts.MaxJobs]
	}
	for i := range records {
		records[i].Seq = i
	}
	tr := &Trace{
		Header: TraceHeader{
			Format:    TraceFormat,
			Version:   TraceVersion,
			Mode:      "imported",
			Process:   im.process,
			HorizonUS: records[len(records)-1].AtUS + time.Second.Microseconds(),
			Jobs:      len(records),
		},
		Records: records,
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ImportFile imports the log at path, written in the named format: "swf"
// (ImportSWF) or "sacct" (ImportSacct).
func ImportFile(path, format string, opts ImportOptions) (*Trace, error) {
	var parse func(io.Reader, ImportOptions) (*Trace, error)
	switch format {
	case "swf":
		parse = ImportSWF
	case "sacct":
		parse = ImportSacct
	default:
		return nil, fmt.Errorf("loadgen: unknown import format %q (swf, sacct)", format)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: opening %s: %w", format, err)
	}
	defer f.Close()
	return parse(f, opts)
}
