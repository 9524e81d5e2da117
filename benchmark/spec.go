package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile is the benchmark's contract with its driver: the command, the
// workloads and every metric name, unit, direction and bound. The harness
// reads it at run time so the emitted metric set, the default run length and
// the bounds `compare` applies have exactly one definition.
const specFile = "BENCHMARK.json"

// buildDir holds everything a run leaves behind (the qcload binary, generated
// traces, child reports, span dumps), under the checkout root and ignored by
// git.
const buildDir = ".bench_build"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json (`go run -C benchmark .` starts one level
// below it).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above it", specFile)
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, workloads, end_to_end and per_layer are all required", specFile)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// pick returns the subset of got named by defs, failing on any name the run
// did not produce: a metric the contract lists must never silently vanish.
func pick(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no value for metric %q", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
