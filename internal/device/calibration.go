package device

import (
	"math"
)

// StartMaintenance takes the device offline. Running tasks finish; queued
// tasks stay queued until maintenance ends.
func (d *Device) StartMaintenance() {
	d.status = StatusMaintenance
	d.maintWindows++
	d.emitTelemetry()
}

// EndMaintenance returns the device to service and recalibrates.
func (d *Device) EndMaintenance() {
	d.Recalibrate()
	d.status = StatusOnline
	d.pump()
	d.emitTelemetry()
}

// InjectCalibrationError applies a deliberate calibration offset — the
// fault-injection hook used by the drift-detection experiments and by QA
// tooling to verify the observability stack reacts to real degradation.
func (d *Device) InjectCalibrationError(rabiDelta, detuningDelta float64) {
	d.calib.RabiFactor += rabiDelta
	d.calib.DetuningOffset += detuningDelta
	d.emitTelemetry()
}

// Recalibrate resets calibration to nominal, as a maintenance action would.
func (d *Device) Recalibrate() {
	d.calib.RabiFactor = 1.0
	d.calib.DetuningOffset = 0
	d.calib.LastCalibrated = d.cfg.Clock.Now()
	if d.status == StatusDegraded {
		d.status = StatusOnline
	}
	d.emitTelemetry()
}

// driftTick random-walks calibration, then re-arms its own slot for the next
// DriftInterval tick.
func (d *Device) driftTick() {
	d.calib.RabiFactor += d.rng.NormFloat64() * d.cfg.DriftSigma
	d.calib.DetuningOffset += d.rng.NormFloat64() * d.cfg.DriftSigma * 10
	// Physical guardrails.
	d.calib.RabiFactor = math.Max(0.5, math.Min(1.5, d.calib.RabiFactor))
	d.emitTelemetry()
	d.cfg.Clock.Arm(&d.drift, d.cfg.DriftInterval)
}

// qaTick runs the periodic internal QA check (paper §3.4: quality assurance
// jobs scheduled by the QPU itself), then re-arms its own slot.
func (d *Device) qaTick() {
	d.RunQACheck()
	d.cfg.Clock.Arm(&d.qa, qaInterval)
}

// RunQACheck evaluates calibration bounds and flips the device between
// online and degraded. It returns true when the device is healthy.
func (d *Device) RunQACheck() bool {
	healthy := math.Abs(d.calib.RabiFactor-1) < 0.05 && math.Abs(d.calib.DetuningOffset) < 1.0
	switch {
	case !healthy && d.status == StatusOnline:
		d.status = StatusDegraded
	case healthy && d.status == StatusDegraded:
		d.status = StatusOnline
	}
	d.emitTelemetry()
	return healthy
}
