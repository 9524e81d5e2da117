package device

import "time"

// emitTelemetry pushes the current state to the registry and TSDB.
func (d *Device) emitTelemetry() {
	if d.gQueueLen == nil && d.tsQueueLen == nil {
		return
	}
	queueLen := float64(len(d.queue))
	rabi := d.calib.RabiFactor
	det := d.calib.DetuningOffset
	var up float64
	switch d.status {
	case StatusOnline:
		up = 1
	case StatusDegraded:
		up = 0.5
	}
	now := d.cfg.Clock.Now()

	d.gQueueLen.Set(queueLen)
	d.gRabi.Set(rabi)
	d.gDetOff.Set(det)
	d.gStatus.Set(up)
	d.tsQueueLen.Append(now, queueLen)
	d.tsRabi.Append(now, rabi)
	d.tsDetOff.Append(now, det)
	d.tsStatus.Append(now, up)
}

// Snapshot is an admin-facing summary of device state.
type Snapshot struct {
	ID           string        `json:"id"`
	Name         string        `json:"name"`
	Status       Status        `json:"status"`
	QueueLength  int           `json:"queue_length"`
	Running      string        `json:"running,omitempty"`
	Calibration  Calibration   `json:"calibration"`
	Utilization  float64       `json:"utilization"`
	TasksTotal   int64         `json:"tasks_total"`
	TasksFailed  int64         `json:"tasks_failed"`
	ShotsTotal   int64         `json:"shots_total"`
	MaintWindows int           `json:"maintenance_windows"`
	Uptime       time.Duration `json:"uptime"`
}

// AdminSnapshot returns the current summary.
func (d *Device) AdminSnapshot() Snapshot {
	util := d.Utilization()
	s := Snapshot{
		ID:           d.id,
		Name:         d.spec.Name,
		Status:       d.status,
		QueueLength:  len(d.queue),
		Calibration:  d.calib,
		Utilization:  util,
		TasksTotal:   d.tasksTotal,
		TasksFailed:  d.tasksFailed,
		ShotsTotal:   d.shotsTotal,
		MaintWindows: d.maintWindows,
		Uptime:       d.cfg.Clock.Now() - d.createdAt,
	}
	if d.running != nil {
		s.Running = d.running.id
	}
	return s
}
