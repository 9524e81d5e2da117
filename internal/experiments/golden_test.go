package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpcqc/internal/daemon"
)

var updateGolden = flag.Bool("update", false, "regenerate internal/experiments/testdata/scheduling.golden from this build")

// TestSchedulingTablesGolden pins the scheduling tables hpcsim prints at seed
// 42 — E1 (Table 1), A2, A5, A8 and A9 — byte for byte. None of them has a
// wall-clock column, so any difference is a scheduling change. Regenerate
// only with `-run TestSchedulingTablesGolden -update`, and name the cells that
// moved and why in EXPERIMENTS.md.
//
// Each run behind the tables also writes a schedule log (one line per job
// lifecycle transition, integers and enums only, the format of loadgen's
// schedule digests), and its SHA-256 is pinned in
// testdata/scheduling.schedule.golden, one line per run in run order: a
// change that reorders jobs yet leaves every table cell alone still fails.
func TestSchedulingTablesGolden(t *testing.T) {
	const seed = 42
	tables, schedules := joinTables(schedulingTables(t, seed, nil))
	for _, golden := range []struct{ file, got string }{
		{"scheduling.golden", tables},
		{"scheduling.schedule.golden", schedules},
	} {
		path := filepath.Join("testdata", golden.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(golden.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (record it with -update)", err)
		}
		if golden.got != string(want) {
			t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", path, golden.got, want)
		}
	}
}

// schedulingTables renders the five scheduling tables at seed, each with the
// schedule digest of every run behind it. amend, when non-nil, may change
// each run's configuration first.
func schedulingTables(t *testing.T, seed int64, amend func(*qpuConfig)) []tableRuns {
	t.Helper()
	var logs []*scheduleLog
	runHook = func(cfg *qpuConfig) func(daemon.JobEvent) {
		if amend != nil {
			amend(cfg)
		}
		l := &scheduleLog{h: sha256.New(), parts: map[string]int{}}
		logs = append(logs, l)
		return l.observe
	}
	defer func() { runHook = nil }()
	var out []tableRuns
	for _, run := range []func(int64) (*Table, error){
		func(s int64) (*Table, error) { _, t, err := RunTable1(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunShotRateSweep(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunPreemption(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunDurationHints(s); return t, err },
		func(s int64) (*Table, error) { _, t, err := RunFairShare(s); return t, err },
	} {
		logs = logs[:0]
		table, err := run(seed)
		if err != nil {
			t.Fatal(err)
		}
		tr := tableRuns{text: table.String()}
		for _, l := range logs {
			tr.digests = append(tr.digests, hex.EncodeToString(l.h.Sum(nil)))
		}
		out = append(out, tr)
	}
	return out
}

// tableRuns is one scheduling table and the schedule digests of its runs.
type tableRuns struct {
	text    string
	digests []string
}

// joinTables is what the two golden files hold: the tables' text, and one
// "<run> <sha256>" line per run in run order.
func joinTables(tables []tableRuns) (text, schedules string) {
	var tb, sb strings.Builder
	run := 0
	for _, tr := range tables {
		tb.WriteString(tr.text)
		for _, d := range tr.digests {
			sb.WriteString(strconv.Itoa(run) + " " + d + "\n")
			run++
		}
	}
	return tb.String(), sb.String()
}

// scheduleLog writes one line per job lifecycle transition into a SHA-256:
// sequence number, simulated µs, job number, event, requested class,
// admitted-as class, partition (numbered in order of first appearance, -1
// for none) and preemptions so far — loadgen's schedule log, line for line.
type scheduleLog struct {
	h     hash.Hash
	seq   int
	parts map[string]int
}

// scheduleEvents numbers the transitions; a finish is told apart by the
// state it ends in.
var scheduleEvents = map[string]int{
	"submitted": 0, "started": 1, "preempted": 2, "requeued": 3,
	"completed": 4, "failed": 5, "cancelled": 6, "rejected": 7,
}

func (l *scheduleLog) observe(ev daemon.JobEvent) {
	event := string(ev.Type)
	if ev.Type == daemon.JobEventFinished {
		event = string(ev.Job.State)
	}
	part := -1
	if dev := ev.Job.Device; dev != "" {
		p, ok := l.parts[dev]
		if !ok {
			p = len(l.parts)
			l.parts[dev] = p
		}
		part = p
	}
	job, _ := strconv.Atoi(strings.TrimPrefix(ev.Job.ID, "job-"))
	fields := [...]int64{int64(l.seq), ev.At.Microseconds(), int64(job), int64(scheduleEvents[event]),
		int64(ev.Job.RequestedClass), int64(ev.Job.Class), int64(part), int64(ev.Job.Preemptions)}
	var b []byte
	for i, v := range fields {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	l.h.Write(append(b, '\n'))
	l.seq++
}
