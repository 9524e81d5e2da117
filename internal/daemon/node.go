package daemon

import "hpcqc/internal/device"

// NodeSpec describes one quantum access node (paper §3.3): Partitions QPU
// partitions built from Device, the daemon Daemon configures in front of
// them, and a policy spec (internal/policy's grammar; empty selects the axis
// default) for each stage Daemon leaves nil.
//
// The fleet and the daemon share one clock, seed, registry and TSDB, all
// Daemon's: NewNode overwrites Device's four with them and sets
// Daemon.Devices to the fleet. Partitions must be at least 1; one partition
// is exactly what device.New builds from Device (same ID, same seed).
type NodeSpec struct {
	Partitions                             int
	Device                                 device.Config
	Daemon                                 Config
	Router, Scheduler, Admission, Priority string
}

// NewNode builds the node s describes; its partitions are the daemon's
// Devices().
func NewNode(s NodeSpec) (*Daemon, error) {
	dev := s.Device
	dev.Clock, dev.Seed, dev.Registry, dev.TSDB = s.Daemon.Clock, s.Daemon.Seed, s.Daemon.Registry, s.Daemon.TSDB
	fleet, err := device.NewFleet(s.Partitions, dev)
	if err != nil {
		return nil, err
	}
	cfg := s.Daemon
	cfg.Devices = fleet.Devices()
	if err := cfg.usePolicies(s.Router, s.Scheduler, s.Admission, s.Priority); err != nil {
		return nil, err
	}
	return NewDaemon(cfg)
}
