package loadgen

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// sacctTime is the timestamp layout sacct emits (no zone; site-local).
const sacctTime = "2006-01-02T15:04:05"

// parseSacctElapsed parses Slurm's [DD-]HH:MM:SS (or MM:SS) duration
// rendering into seconds. "INVALID", "UNLIMITED", "Partition_Limit" and
// empty all report as unusable (0).
func parseSacctElapsed(s string) (float64, error) {
	switch s {
	case "", "INVALID", "UNLIMITED", "Partition_Limit":
		return 0, nil
	}
	days := 0
	if d, rest, ok := strings.Cut(s, "-"); ok {
		n, err := strconv.Atoi(d)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad day count %q", d)
		}
		days = n
		s = rest
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	secs := 0
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad duration component %q", p)
		}
		secs = secs*60 + n
	}
	return float64(days)*86400 + float64(secs), nil
}

// sacctClass maps a Slurm partition name onto a priority class, mirroring
// the SWF queue-number convention: production partitions by name, test and
// debug partitions to test, everything else (batch, gpu, …) to dev.
func sacctClass(partition string) string {
	p := strings.ToLower(partition)
	switch {
	case strings.Contains(p, "prod"):
		return "production"
	case strings.Contains(p, "test"), strings.Contains(p, "debug"):
		return "test"
	default:
		return "dev"
	}
}

// ImportSacct converts Slurm's accounting export — pipe-separated records,
//
//	sacct --parsable2 --format=JobID,User,Partition,Submit,Elapsed,Timelimit,State
//
// — into a trace, so a site's own Slurm accounting drives the replay and sweep
// machinery the same way archived SWF logs do (the daemon's primary intake is
// Slurm, §3.3).
//
// Parsing is header-driven: the first non-empty line names the columns, and
// any column order or superset of the required ones works. Required columns:
//
//	JobID      — sub-step rows ("123.batch", "123.0") are skipped; only the
//	             parent allocation becomes a trace record
//	Submit     — ISO-8601 local timestamp (2006-01-02T15:04:05); arrivals are
//	             rebased so the earliest submit is t=0; a row whose submit
//	             does not parse is skipped
//	Elapsed    — [DD-]HH:MM:SS wall time → QPU service demand, falling back
//	             to Timelimit when Elapsed is zero or "INVALID"; a row with
//	             neither is skipped
//
// Optional columns: User (submitter; "user-unknown" when absent), Partition
// (priority class: names containing "prod" → production, "test"/"debug" →
// test, anything else → dev — the same partition-name convention the SWF
// queue mapping mirrors), Timelimit (Elapsed fallback). State is accepted
// but ignored: cancelled jobs still occupied the queue, so they count as
// offered load. The mapping is deterministic; importing the same file twice
// yields byte-identical traces.
func ImportSacct(r io.Reader, opts ImportOptions) (*Trace, error) {
	im := newImporter(r, "sacct", opts)
	col := map[string]int{}
	var submits []time.Time
	for text, ok := im.next(); ok; text, ok = im.next() {
		fields := strings.Split(text, "|")
		if len(col) == 0 {
			// Header row names the columns; everything after is data.
			for i, name := range fields {
				col[strings.TrimSpace(name)] = i
			}
			for _, need := range []string{"JobID", "Submit", "Elapsed"} {
				if _, ok := col[need]; !ok {
					return nil, fmt.Errorf("loadgen: sacct header missing column %s (have %q)", need, text)
				}
			}
			continue
		}
		get := func(name string) string {
			i, ok := col[name]
			if !ok || i >= len(fields) {
				return ""
			}
			return strings.TrimSpace(fields[i])
		}
		jobID := get("JobID")
		if jobID == "" {
			return nil, fmt.Errorf("loadgen: sacct line %d has no JobID", im.line)
		}
		if strings.ContainsRune(jobID, '.') {
			// Sub-step row (123.batch, 123.extern, 123.0): the parent
			// allocation already carries the job.
			continue
		}
		submit, err := time.Parse(sacctTime, get("Submit"))
		if err != nil {
			im.skipped++
			continue
		}
		elapsed, err := parseSacctElapsed(get("Elapsed"))
		if err != nil {
			return nil, fmt.Errorf("loadgen: sacct line %d Elapsed: %v", im.line, err)
		}
		if elapsed <= 0 {
			if elapsed, err = parseSacctElapsed(get("Timelimit")); err != nil {
				return nil, fmt.Errorf("loadgen: sacct line %d Timelimit: %v", im.line, err)
			}
		}
		if elapsed <= 0 {
			im.skipped++
			continue
		}
		user := get("User")
		if user == "" {
			user = "user-unknown"
		}
		im.add(0, user, sacctClass(get("Partition")), elapsed)
		submits = append(submits, submit)
	}
	if len(col) == 0 && im.sc.Err() == nil {
		return nil, fmt.Errorf("loadgen: sacct input has no header row")
	}
	// Rebase arrivals so the earliest submit is t=0: replay clocks start at
	// zero, and absolute wall-clock epochs would put the whole trace beyond
	// any reasonable horizon.
	var earliest time.Time
	for i, t := range submits {
		if i == 0 || t.Before(earliest) {
			earliest = t
		}
	}
	for i := range im.records {
		im.records[i].AtUS = submits[i].Sub(earliest).Microseconds()
	}
	return im.finish()
}
