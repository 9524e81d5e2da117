package loadgen

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ImportSWF converts a log in the Parallel Workloads Archive's Standard
// Workload Format (SWF) — the de-facto interchange format for production HPC
// scheduler logs: one job per line, 18 whitespace-separated numeric fields,
// ';' header comments — into a trace, so decades of archived supercomputer
// traffic can drive the replay and sweep machinery directly.
//
// Field mapping (SWF fields are 1-based):
//
//	 2  submit time (s)      → arrival instant
//	 4  run time (s)         → QPU service demand (falls back to field 9,
//	                           requested time, when the run time is missing)
//	12  user ID              → synthetic submitter "user-N"
//	15  queue number         → priority class: 1 → production, 2 → test,
//	                           anything else (including missing) → dev
//
// Everything else (processor counts, memory, think times) has no analog on
// a shot-based QPU and is ignored. Records with a negative submit time or no
// positive run/requested time are skipped (the archive marks unknown fields
// with -1). The mapping is deterministic, so importing the same file twice
// yields byte-identical traces.
func ImportSWF(r io.Reader, opts ImportOptions) (*Trace, error) {
	im := newImporter(r, "swf", opts)
	for text, ok := im.next(); ok; text, ok = im.next() {
		if strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 15 {
			return nil, fmt.Errorf("loadgen: swf line %d has %d fields, want ≥ 15", im.line, len(fields))
		}
		var submit, service, requested, userID, queue float64
		for _, f := range []struct {
			n int
			v *float64
		}{{2, &submit}, {4, &service}, {9, &requested}, {12, &userID}, {15, &queue}} {
			var err error
			if *f.v, err = strconv.ParseFloat(fields[f.n-1], 64); err != nil {
				return nil, fmt.Errorf("loadgen: swf line %d field %d: %w", im.line, f.n, err)
			}
		}
		if service <= 0 {
			service = requested
		}
		if submit < 0 || service <= 0 {
			im.skipped++
			continue
		}
		class := "dev"
		switch int(queue) {
		case 1:
			class = "production"
		case 2:
			class = "test"
		}
		user := "user-unknown"
		if userID >= 0 {
			user = fmt.Sprintf("user-%d", int(userID))
		}
		im.add(int64(submit*1e6), user, class, service)
	}
	return im.finish()
}
