package loadgen

import (
	"fmt"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/sched"
)

// arrivalEvent is a test-class submission of seq at atUS, as a daemon's job
// listener sees it.
func arrivalEvent(seq int, atUS int64) daemon.JobEvent {
	return daemon.JobEvent{
		Type: daemon.JobEventSubmitted,
		At:   time.Duration(atUS) * time.Microsecond,
		Job: daemon.Job{
			ID:                 fmt.Sprintf("job-%d", seq),
			User:               "alice",
			Class:              sched.ClassTest,
			RequestedClass:     sched.ClassTest,
			ExpectedQPUSeconds: 30,
		},
	}
}
