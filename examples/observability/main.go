// observability walks the paper's §3.6 monitoring story from the hosting
// site's point of view: the QPU streams calibration telemetry into the
// time-series store, a Prometheus-format endpoint exposes it, a drift
// detector and alert rule watch it, a fault is injected, the alert fires,
// and the admin recalibrates through the daemon's gated control plane.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

func main() {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	tsdb := telemetry.NewTSDB(24*time.Hour, 0)
	dmn, err := daemon.NewNode(daemon.NodeSpec{
		Partitions: 1,
		Device:     device.Config{DriftInterval: 30 * time.Second, DriftSigma: 0.0005},
		Daemon: daemon.Config{
			Clock: clk, Seed: 4, AdminToken: "admin",
			Registry: reg, TSDB: tsdb,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	dev := dmn.Devices()[0]

	// The ops team's alert rule: sustained Rabi-factor drift.
	detector := telemetry.NewDriftDetector()
	alerts := telemetry.NewAlertManager(tsdb)
	err = alerts.AddRule(&telemetry.AlertRule{
		Name:     "qpu_rabi_drift",
		Series:   "qpu_calib_rabi_factor",
		Labels:   telemetry.Labels{"device": dev.Spec().Name},
		Severity: telemetry.SeverityCritical,
		Predicate: func(v float64) bool {
			return detector.Observe(v) != telemetry.DriftOK
		},
		For: time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Healthy operation: 30 simulated minutes of telemetry.
	fmt.Println("— 30 min of healthy operation —")
	for i := 0; i < 60; i++ {
		clk.Advance(30 * time.Second)
		alerts.Evaluate(clk.Now())
	}
	fmt.Printf("drift state: %s (deviation %.4f), firing alerts: %v\n",
		detector.State(), detector.Deviation(), alerts.Firing())

	// A laser degrades: 12% calibration error appears.
	fmt.Println("\n— fault injected: Rabi factor drops 12% —")
	dev.InjectCalibrationError(-0.12, 0)
	var fired []telemetry.Alert
	for i := 0; i < 60 && len(fired) == 0; i++ {
		clk.Advance(30 * time.Second)
		fired = alerts.Evaluate(clk.Now())
	}
	if len(fired) == 0 {
		log.Fatal("alert never fired")
	}
	fmt.Printf("ALERT %s severity=%s value=%.3f at t=%s\n",
		fired[0].Rule, fired[0].Severity, fired[0].Value, fired[0].At)

	// The QA check confirms degradation; per-job metadata would carry it.
	if _, err := dmn.LowLevelOp("qa_check"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device status after QA: %s\n", dev.Status())

	// The admin recalibrates through the gated control plane.
	fmt.Println("\n— admin action: recalibrate —")
	if _, err := dmn.LowLevelOp("recalibrate"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device status: %s, calibration: %+v\n", dev.Status(), dev.CalibrationSnapshot())

	// What the site's Prometheus would scrape right now.
	fmt.Println("\n— /metrics (excerpt) —")
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if strings.HasPrefix(line, "qpu_") && !strings.HasPrefix(line, "qpu_queue") {
			fmt.Println(" ", line)
		}
	}

	// Historical view from the TSDB: hourly downsampled calibration.
	pts := tsdb.Downsample("qpu_calib_rabi_factor",
		telemetry.Labels{"device": dev.Spec().Name},
		0, clk.Now(), 10*time.Minute, telemetry.AggMean)
	fmt.Println("\n— calibration history (10-min means) —")
	for _, p := range pts {
		bar := strings.Repeat("#", int(p.Value*40))
		fmt.Printf("  t=%-6s %.4f %s\n", p.At.Round(time.Minute), p.Value, bar)
	}
}
