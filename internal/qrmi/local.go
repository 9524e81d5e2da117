package qrmi

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"hpcqc/internal/emulator"
	"hpcqc/internal/mint"
	"hpcqc/internal/qir"
)

// EmulatorResource adapts an emulator.Backend to the QRMI contract. This is
// the paper's extension of QRMI "to locally running emulators" (§1): the
// same lifecycle a QPU exposes, executed synchronously in-process.
type EmulatorResource struct {
	backend emulator.Backend
	seed    int64

	mu       sync.Mutex
	acquired map[string]bool
	tasks    mint.Ring[localTask] // indexed by the number emu-task-N spells
	nextTok  int
}

const emuTaskPrefix = "emu-task-"

// emuTaskHistory bounds the tasks an EmulatorResource or a DeviceResource
// keeps, as the daemon's History default bounds its finished jobs: past it the
// oldest task goes, and its ID then reads as an unknown task.
const emuTaskHistory = 16384

type localTask struct {
	state  TaskState
	result []byte
	err    error
}

// NewEmulatorResource wraps a backend. Seed makes sampling reproducible; the
// per-task seed is derived from it and the task ordinal.
func NewEmulatorResource(b emulator.Backend, seed int64) *EmulatorResource {
	return &EmulatorResource{
		backend:  b,
		seed:     seed,
		acquired: make(map[string]bool),
	}
}

// Target implements Resource.
func (r *EmulatorResource) Target() string { return r.backend.Name() }

// Metadata implements Resource: the spec plus emulator identification.
func (r *EmulatorResource) Metadata() (map[string]string, error) {
	spec := r.backend.Spec()
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return map[string]string{
		"spec":       string(raw),
		"kind":       "emulator",
		"max_qubits": strconv.Itoa(spec.MaxQubits),
	}, nil
}

// Acquire implements Resource. Emulators are freely shareable: every caller
// gets a token.
func (r *EmulatorResource) Acquire() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextTok++
	tok := fmt.Sprintf("emu-token-%d", r.nextTok)
	r.acquired[tok] = true
	return tok, nil
}

// Release implements Resource.
func (r *EmulatorResource) Release(token string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.acquired[token] {
		return fmt.Errorf("qrmi: unknown token %q", token)
	}
	delete(r.acquired, token)
	return nil
}

func (r *EmulatorResource) anyAcquiredLocked() bool { return len(r.acquired) > 0 }

// TaskStart implements Resource: synchronous execution, then a completed (or
// failed) task record.
func (r *EmulatorResource) TaskStart(payload []byte) (string, error) {
	r.mu.Lock()
	if !r.anyAcquiredLocked() {
		r.mu.Unlock()
		return "", ErrNotAcquired
	}
	t := &localTask{state: StateRunning}
	n := r.tasks.Push(t)
	for r.tasks.Len() > emuTaskHistory {
		r.tasks.Pop()
	}
	id, seed := mint.Spell(emuTaskPrefix, n), r.seed+int64(n)
	r.mu.Unlock()

	var prog qir.Program
	if err := json.Unmarshal(payload, &prog); err != nil {
		r.failTask(t, fmt.Errorf("qrmi: decoding program: %w", err))
		return id, nil
	}
	res, err := r.backend.Run(&prog, seed)
	if err != nil {
		r.failTask(t, err)
		return id, nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		r.failTask(t, err)
		return id, nil
	}
	r.mu.Lock()
	t.state = StateCompleted
	t.result = raw
	r.mu.Unlock()
	return id, nil
}

func (r *EmulatorResource) failTask(t *localTask, err error) {
	r.mu.Lock()
	t.state = StateFailed
	t.err = err
	r.mu.Unlock()
}

// TaskStop implements Resource. Synchronous tasks are already terminal, so
// this only validates the ID.
func (r *EmulatorResource) TaskStop(taskID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tasks.At(mint.Number(emuTaskPrefix, taskID))
	if t == nil {
		return fmt.Errorf("qrmi: unknown task %q", taskID)
	}
	if !t.state.Terminal() {
		t.state = StateCancelled
	}
	return nil
}

// TaskStatus implements Resource.
func (r *EmulatorResource) TaskStatus(taskID string) (TaskState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tasks.At(mint.Number(emuTaskPrefix, taskID))
	if t == nil {
		return "", fmt.Errorf("qrmi: unknown task %q", taskID)
	}
	return t.state, nil
}

// TaskResult implements Resource.
func (r *EmulatorResource) TaskResult(taskID string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tasks.At(mint.Number(emuTaskPrefix, taskID))
	if t == nil {
		return nil, fmt.Errorf("qrmi: unknown task %q", taskID)
	}
	switch t.state {
	case StateCompleted:
		return t.result, nil
	case StateFailed:
		return nil, t.err
	default:
		return nil, ErrResultNotReady
	}
}

func init() {
	// emu-sv: exact state-vector backend.
	RegisterFactory("emu-sv", func(cfg map[string]string) (Resource, error) {
		seed := parseSeed(cfg)
		maxQ, _ := strconv.Atoi(cfg["sv_max_qubits"])
		dt, _ := strconv.ParseFloat(cfg["sv_dt_ns"], 64)
		return NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{
			MaxQubits: maxQ,
			DTNs:      dt,
			Noise:     noiseFromConfig(cfg),
		}), seed), nil
	})
	// emu-mps: tensor-network backend; bond dimension via mps_bond_dim.
	RegisterFactory("emu-mps", func(cfg map[string]string) (Resource, error) {
		seed := parseSeed(cfg)
		bond, _ := strconv.Atoi(cfg["mps_bond_dim"])
		maxQ, _ := strconv.Atoi(cfg["mps_max_qubits"])
		return NewEmulatorResource(emulator.NewMPSBackend(emulator.MPSConfig{
			MaxBond:   bond,
			MaxQubits: maxQ,
			Noise:     noiseFromConfig(cfg),
		}), seed), nil
	})
}

func parseSeed(cfg map[string]string) int64 {
	seed, _ := strconv.ParseInt(cfg["seed"], 10, 64)
	return seed
}

func noiseFromConfig(cfg map[string]string) emulator.NoiseModel {
	if cfg["noise"] != "1" && cfg["noise"] != "true" {
		return emulator.NoiseModel{}
	}
	return emulator.DefaultNoise()
}
