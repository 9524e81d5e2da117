// Package qrmi is a Go rendition of the vendor-neutral Quantum Resource
// Management Interface the paper builds on (Sitdikov et al. [23]): a small
// lifecycle contract — acquire, start task, poll, fetch result, release —
// configured through environment variables, behind which any execution
// target can sit. The paper's contribution extends QRMI from connectivity
// and Slurm scheduling to locally-running emulators and a middleware daemon;
// this package provides the contract plus the local implementations, and the
// daemon package provides the HTTP-backed one.
package qrmi

import (
	"errors"
	"fmt"
)

// TaskState is the lifecycle state of a submitted task, the QRMI analogue of
// the device and daemon task states.
type TaskState string

const (
	// StateQueued is accepted, waiting to execute.
	StateQueued TaskState = "queued"
	// StateRunning is executing.
	StateRunning TaskState = "running"
	// StateCompleted has a result available.
	StateCompleted TaskState = "completed"
	// StateFailed terminated with an error.
	StateFailed TaskState = "failed"
	// StateCancelled was stopped before completion.
	StateCancelled TaskState = "cancelled"
)

// Terminal reports whether the state is final.
func (s TaskState) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// ErrNotAcquired is returned by task operations before Acquire.
var ErrNotAcquired = errors.New("qrmi: resource not acquired")

// ErrResultNotReady is returned by TaskResult before the task completes.
var ErrResultNotReady = errors.New("qrmi: task result not ready")

// Resource is the QRMI contract. Payloads are serialized qir.Programs; the
// interface deliberately traffics in bytes so that implementations backed by
// HTTP services do not re-parse what they only forward (SDK-neutrality: the
// payload format, not the SDK, is the contract).
type Resource interface {
	// Target identifies the resource (e.g. "qpu-onprem", "emu-mps-chi16").
	Target() string
	// Metadata returns device characteristics: the serialized DeviceSpec
	// under "spec", plus implementation-specific keys such as calibration
	// state. The runtime fetches this at every workflow stage (Figure 1).
	Metadata() (map[string]string, error)
	// Acquire takes a usage token; implementations may enforce exclusive
	// or shared access. Task operations require a prior Acquire.
	Acquire() (string, error)
	// Release returns the token.
	Release(token string) error
	// TaskStart submits a serialized qir.Program and returns a task ID.
	TaskStart(payload []byte) (string, error)
	// TaskStop cancels a task if it has not finished.
	TaskStop(taskID string) error
	// TaskStatus polls the lifecycle state.
	TaskStatus(taskID string) (TaskState, error)
	// TaskResult returns the serialized qir.Result of a completed task,
	// ErrResultNotReady before completion, or the task's error.
	TaskResult(taskID string) ([]byte, error)
}

// Factory builds a Resource from a configuration map (environment-variable
// style, see config.go).
type Factory func(cfg map[string]string) (Resource, error)

// factories is the type → Factory registry. Local types register here;
// the HTTP-backed type (daemon) is registered by its package via
// RegisterFactory so this package does not import it.
var factories = map[string]Factory{}

// RegisterFactory installs a resource-type factory. Later registrations
// replace earlier ones, letting tests inject fakes.
func RegisterFactory(resourceType string, f Factory) error {
	if resourceType == "" || f == nil {
		return errors.New("qrmi: factory registration needs a type and function")
	}
	factories[resourceType] = f
	return nil
}

// NewResource builds a resource of the given registered type.
func NewResource(resourceType string, cfg map[string]string) (Resource, error) {
	f, ok := factories[resourceType]
	if !ok {
		return nil, fmt.Errorf("qrmi: unknown resource type %q", resourceType)
	}
	return f(cfg)
}

// KnownTypes lists registered resource types (for error messages and CLIs).
func KnownTypes() []string {
	out := make([]string, 0, len(factories))
	for k := range factories {
		out = append(out, k)
	}
	return out
}
