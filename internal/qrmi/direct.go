package qrmi

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/mint"
	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
)

// DeviceResource adapts the on-premises QPU device model to the QRMI
// contract — the paper's "on-premises QPU connection" device (§3.2 item 1).
//
// The device executes on a simulation clock. When AutoAdvance is set, status
// polls advance that clock, so a plain poll loop drives the simulation the
// way wall-clock time drives a real device; when unset, the surrounding
// harness owns the clock (the experiment drivers do this). The device lives
// inside its clock's world (see simclock): every call reaching it enters the
// world through the clock's lock, so the resource is safe for concurrent use
// beside whatever else drives that clock. Its own state — the tokens it handed
// out and the tasks it started — lives in that world too, under the same lock.
type DeviceResource struct {
	dev   *device.Device
	clock *simclock.Clock
	// fleet is the partition pool the device belongs to, when the resource
	// was built through the qpu-direct factory with qpu_partitions set.
	fleet *device.Fleet
	// AutoAdvance moves the clock forward by this much per status poll.
	AutoAdvance time.Duration

	tokens  map[string]bool
	nextTok int
	// started holds the IDs of the tasks TaskStart submitted, oldest first.
	// Past emuTaskHistory the oldest goes once it is terminal, and the device
	// forgets it; a live oldest task waits for a later TaskStart, so the ring
	// exceeds the bound by at most the tasks outstanding.
	started mint.Ring[string]
}

// NewDeviceResource wraps an existing device and its clock.
func NewDeviceResource(dev *device.Device, clock *simclock.Clock) *DeviceResource {
	return &DeviceResource{dev: dev, clock: clock, tokens: make(map[string]bool)}
}

// Target implements Resource. For fleet partitions this is the partition ID
// (e.g. "analog-qpu-p2"); it coincides with the spec name on single devices.
func (r *DeviceResource) Target() string { return r.dev.ID() }

// Metadata implements Resource: spec, live calibration and status — the
// device characteristics the workflow fetches before submission (Figure 1).
func (r *DeviceResource) Metadata() (map[string]string, error) {
	spec := r.dev.Spec()
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	r.clock.Lock()
	calib, status, queued := r.dev.CalibrationSnapshot(), r.dev.Status(), r.dev.QueueLength()
	r.clock.Unlock()
	rawCalib, err := json.Marshal(calib)
	if err != nil {
		return nil, err
	}
	md := map[string]string{
		"spec":         string(rawSpec),
		"kind":         "qpu",
		"status":       string(status),
		"calibration":  string(rawCalib),
		"queue_length": strconv.Itoa(queued),
		"partition":    r.dev.ID(),
	}
	if r.fleet != nil {
		md["partitions"] = strings.Join(r.fleet.IDs(), ",")
	}
	return md, nil
}

// Acquire implements Resource. The device queue serializes execution, so
// multiple holders are safe.
func (r *DeviceResource) Acquire() (string, error) {
	r.clock.Lock()
	defer r.clock.Unlock()
	if r.dev.Status() == device.StatusMaintenance {
		return "", fmt.Errorf("qrmi: device %s is in maintenance", r.Target())
	}
	r.nextTok++
	tok := fmt.Sprintf("qpu-token-%d", r.nextTok)
	r.tokens[tok] = true
	return tok, nil
}

// Release implements Resource.
func (r *DeviceResource) Release(token string) error {
	r.clock.Lock()
	defer r.clock.Unlock()
	if !r.tokens[token] {
		return fmt.Errorf("qrmi: unknown token %q", token)
	}
	delete(r.tokens, token)
	return nil
}

// TaskStart implements Resource. The payload is decoded before the world is
// entered; an unacquired resource answers ErrNotAcquired before a decode error.
func (r *DeviceResource) TaskStart(payload []byte) (string, error) {
	prog, decodeErr := decodeProgram(payload)
	r.clock.Lock()
	defer r.clock.Unlock()
	if len(r.tokens) == 0 {
		return "", ErrNotAcquired
	}
	if decodeErr != nil {
		return "", decodeErr
	}
	id, err := r.dev.Submit(prog)
	if err != nil {
		return "", err
	}
	r.started.Push(&id)
	for r.started.Len() > emuTaskHistory {
		if st, _ := r.dev.TaskStatus(*r.started.Slots()[0]); !mapDeviceState(st).Terminal() {
			break
		}
		r.dev.Forget(*r.started.Pop())
	}
	return id, nil
}

// TaskStop implements Resource.
func (r *DeviceResource) TaskStop(taskID string) error {
	r.clock.Lock()
	defer r.clock.Unlock()
	return r.dev.Cancel(taskID)
}

// TaskStatus implements Resource.
func (r *DeviceResource) TaskStatus(taskID string) (TaskState, error) {
	if r.AutoAdvance > 0 {
		r.clock.Advance(r.AutoAdvance)
	}
	r.clock.Lock()
	st, err := r.dev.TaskStatus(taskID)
	r.clock.Unlock()
	if err != nil {
		return "", err
	}
	return mapDeviceState(st), nil
}

// TaskResult implements Resource.
func (r *DeviceResource) TaskResult(taskID string) ([]byte, error) {
	r.clock.Lock()
	st, err := r.dev.TaskStatus(taskID)
	var res *qir.Result
	if err == nil && (st == device.TaskCompleted || st == device.TaskFailed) {
		res, err = r.dev.TaskResult(taskID)
	}
	r.clock.Unlock()
	switch {
	case err != nil:
		return nil, err
	case st == device.TaskCompleted:
		return json.Marshal(res)
	default:
		return nil, ErrResultNotReady
	}
}

func mapDeviceState(st device.TaskState) TaskState {
	switch st {
	case device.TaskQueued:
		return StateQueued
	case device.TaskRunning:
		return StateRunning
	case device.TaskCompleted:
		return StateCompleted
	case device.TaskCancelled:
		return StateCancelled
	default:
		return StateFailed
	}
}

func init() {
	// qpu-direct: a self-contained device on its own clock, advanced by
	// status polls. Suitable for single-process use (qrun against a local
	// mock device); multi-user setups share a device via the daemon.
	//
	// qpu_partitions=N builds an N-partition fleet on the shared clock and
	// qpu_partition=<id> names which partition the resource acquires —
	// the QRMI analogue of binding a Slurm allocation to one named QPU
	// partition of the access node.
	RegisterFactory("qpu-direct", func(cfg map[string]string) (Resource, error) {
		clk := simclock.New()
		seed := parseSeed(cfg)
		devCfg := device.Config{Clock: clk, Seed: seed}
		// qpu_digital=true models the roadmap gate-model device.
		if cfg["qpu_digital"] == "true" || cfg["qpu_digital"] == "1" {
			devCfg.Spec = qir.DefaultDigitalSpec()
		}
		partitions := 1
		if raw := cfg["qpu_partitions"]; raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("qrmi: invalid qpu_partitions %q (want a positive integer)", raw)
			}
			partitions = v
		}
		fleet, err := device.NewFleet(partitions, devCfg)
		if err != nil {
			return nil, err
		}
		dev := fleet.Devices()[0]
		if want := cfg["qpu_partition"]; want != "" {
			var ok bool
			if dev, ok = fleet.Get(want); !ok {
				return nil, fmt.Errorf("qrmi: unknown partition %q (have: %v)", want, fleet.IDs())
			}
		}
		r := NewDeviceResource(dev, clk)
		r.fleet = fleet
		r.AutoAdvance = time.Second
		if v, err := strconv.ParseFloat(cfg["qpu_poll_advance_s"], 64); err == nil && v > 0 {
			r.AutoAdvance = simclock.Seconds(v)
		}
		return r, nil
	})
}
