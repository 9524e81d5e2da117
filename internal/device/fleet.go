package device

import (
	"errors"
	"fmt"

	"hpcqc/internal/qir"
)

// Fleet is a pool of simulated QPU partitions sharing one simulation clock.
// The paper's middleware daemon manages "the QPU"; scaling that architecture
// to heavy multi-user traffic means managing N partitions behind one access
// node, with routing (which partition) decoupled from scheduling (what order
// on that partition). Fleet is the device-layer half of that split: it owns
// construction and ID-based lookup, and the daemon layers routing policy on
// top.
//
// Registry metric families (qpu_up, qpu_shots_total, …) are shared across
// partitions: the counters aggregate over the fleet, and each gauge is one
// series per partition, labelled {device=<id>} exactly as its TSDB twin is.
type Fleet struct {
	devices []*Device
	byID    map[string]*Device
}

// NewFleet builds n partitions from the base config, all on the base clock.
// With n == 1 the partition keeps the spec name as its ID, so a one-device
// fleet is indistinguishable from the classic single-device setup. With
// n > 1 partitions are named "<spec>-p0" … "<spec>-p<n-1>" and seeded
// distinctly so calibration drift decorrelates across the pool.
func NewFleet(n int, base Config) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("device: fleet needs at least 1 partition, got %d", n)
	}
	if base.Clock == nil {
		return nil, errors.New("device: fleet config requires a clock")
	}
	name := base.Spec.Name
	if name == "" {
		name = qir.DefaultAnalogSpec().Name
	}
	f := &Fleet{byID: make(map[string]*Device, n)}
	for i := 0; i < n; i++ {
		cfg := base
		if n > 1 {
			cfg.ID = fmt.Sprintf("%s-p%d", name, i)
			cfg.Seed = base.Seed + int64(i)
		}
		dev, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("device: fleet partition %d: %w", i, err)
		}
		if err := f.add(dev); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// FleetOf wraps pre-built devices (e.g. heterogeneous specs) into a fleet.
func FleetOf(devices ...*Device) (*Fleet, error) {
	if len(devices) == 0 {
		return nil, errors.New("device: fleet needs at least 1 device")
	}
	f := &Fleet{byID: make(map[string]*Device, len(devices))}
	for _, dev := range devices {
		if dev == nil {
			return nil, errors.New("device: nil device in fleet")
		}
		if err := f.add(dev); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *Fleet) add(dev *Device) error {
	if _, dup := f.byID[dev.ID()]; dup {
		return fmt.Errorf("device: duplicate fleet device ID %q", dev.ID())
	}
	f.devices = append(f.devices, dev)
	f.byID[dev.ID()] = dev
	return nil
}

// Devices returns the partitions in construction order. The slice is shared;
// callers must not mutate it.
func (f *Fleet) Devices() []*Device { return f.devices }

// Get looks a partition up by device ID.
func (f *Fleet) Get(id string) (*Device, bool) {
	dev, ok := f.byID[id]
	return dev, ok
}

// IDs lists partition IDs in construction order.
func (f *Fleet) IDs() []string {
	out := make([]string, len(f.devices))
	for i, dev := range f.devices {
		out[i] = dev.ID()
	}
	return out
}
