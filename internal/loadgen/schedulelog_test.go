package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
	"strings"

	"hpcqc/internal/daemon"
)

// scheduleLog is a JobListener that writes one line per lifecycle
// transition into a SHA-256: sequence number, simulated µs, job number,
// event, requested class, admitted-as class, partition (numbered in order of
// first appearance, -1 for none) and preemptions so far. Every field is an
// integer or an enum, so the digest pins the schedule itself — which job ran
// where, when, in what order — where a report digest pins only aggregates.
type scheduleLog struct {
	h     hash.Hash
	seq   int
	parts map[string]int
	line  []byte
}

func newScheduleLog() *scheduleLog {
	return &scheduleLog{h: sha256.New(), parts: map[string]int{}}
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
	b := l.line[:0]
	for i, v := range [...]int64{int64(l.seq), ev.At.Microseconds(), int64(job), int64(scheduleEvents[event]),
		int64(ev.Job.RequestedClass), int64(ev.Job.Class), int64(part), int64(ev.Job.Preemptions)} {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	l.line = append(b, '\n')
	l.h.Write(l.line)
	l.seq++
}

func (l *scheduleLog) digest() string { return hex.EncodeToString(l.h.Sum(nil)) }
