// Package core implements the paper's primary contribution: a portable
// runtime environment for hybrid quantum-classical programs. One program,
// written once, executes on a laptop emulator, an HPC tensor-network
// emulator or the production QPU behind the daemon, switched only by the
// `--qpu=<resource>` option or its environment equivalent — never by a
// source change (paper §3.1–3.2, realizing the Figure 1 workflow).
//
// The runtime resolves a named resource profile to a QRMI resource, fetches
// the target's device characteristics, validates programs against them at
// the point of execution (catching calibration drift and device swaps
// early), and runs the QRMI lifecycle.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
)

// Profile is a named QRMI configuration: the values that would appear as
// QRMI_* environment variables for that resource.
type Profile map[string]string

// Profiles is the runtime's resource catalogue, the moral equivalent of the
// site's qrmi.conf: every execution environment a program can bind.
type Profiles struct {
	// Default names the profile used when no --qpu is given.
	Default string `json:"default"`
	// ByName maps resource names to their configuration.
	ByName map[string]Profile `json:"profiles"`
}

// BuiltinProfiles returns the out-of-the-box catalogue: the local exact
// emulator, HPC-scale tensor-network emulators at two bond dimensions, the
// χ=1 mock device, and a local on-prem-style device model. Daemon
// profiles require an endpoint, so sites add them via profile files.
func BuiltinProfiles() *Profiles {
	return &Profiles{
		Default: "local-sv",
		ByName: map[string]Profile{
			"local-sv": {
				"resource_type": "emu-sv",
			},
			"hpc-mps": {
				"resource_type": "emu-mps",
				"mps_bond_dim":  "16",
			},
			"hpc-mps-large": {
				"resource_type":  "emu-mps",
				"mps_bond_dim":   "64",
				"mps_max_qubits": "256",
			},
			"mock-qpu": {
				"resource_type":  "emu-mps",
				"mps_bond_dim":   "1",
				"mps_max_qubits": "1024",
			},
			"qpu-onprem": {
				"resource_type": "qpu-direct",
			},
			"qpu-digital": {
				"resource_type": "qpu-direct",
				"qpu_digital":   "true",
			},
		},
	}
}

// LoadProfiles reads a profile catalogue from a JSON file and overlays it on
// the builtins (file entries win; the file's default wins when set).
func LoadProfiles(path string) (*Profiles, error) {
	base := BuiltinProfiles()
	if path == "" {
		return base, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading profiles: %w", err)
	}
	var file Profiles
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("core: parsing profiles %s: %w", path, err)
	}
	for name, p := range file.ByName {
		base.ByName[name] = p
	}
	if file.Default != "" {
		base.Default = file.Default
	}
	return base, nil
}

// Resolve picks the profile for a resource name, applying the paper's
// precedence: explicit --qpu flag, then QRMI_RESOURCE from the environment
// (as injected by the Slurm plugin), then the catalogue default. Extra
// environment QRMI_* settings overlay the profile.
func (p *Profiles) Resolve(qpuFlag string, environ []string) (map[string]string, error) {
	envCfg := qrmi.ConfigFromEnviron(environ)
	name := qpuFlag
	if name == "" {
		name = envCfg["resource"]
	}
	if name == "" {
		name = p.Default
	}
	if name == "" {
		return nil, errors.New("core: no resource selected and no default profile")
	}
	prof, ok := p.ByName[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown resource %q (profiles: %s)", name, p.Names())
	}
	cfg := qrmi.MergeConfig(map[string]string(prof), envCfg)
	cfg["resource"] = name
	if cfg["resource_type"] == "" {
		cfg["resource_type"] = prof["resource_type"]
	}
	return cfg, nil
}

// Names lists catalogue entries in sorted order.
func (p *Profiles) Names() string {
	names := make([]string, 0, len(p.ByName))
	for name := range p.ByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// maxPolls bounds the QRMI poll loop per execution.
const maxPolls = 1 << 20

// Runtime binds one execution target and runs programs against it.
type Runtime struct {
	resource qrmi.Resource
	spec     *qir.DeviceSpec
	metadata map[string]string
	cfg      map[string]string
}

// NewRuntime resolves a configuration map into a bound runtime: it builds
// the QRMI resource and fetches the device characteristics needed for
// program development (Figure 1).
func NewRuntime(cfg map[string]string) (*Runtime, error) {
	res, err := qrmi.ResolveResource(cfg)
	if err != nil {
		return nil, err
	}
	return NewRuntimeWithResource(res, cfg)
}

// NewRuntimeWithResource wraps an existing resource (used when the caller
// already holds one, e.g. a daemon client with an open session).
func NewRuntimeWithResource(res qrmi.Resource, cfg map[string]string) (*Runtime, error) {
	md, err := res.Metadata()
	if err != nil {
		return nil, fmt.Errorf("core: fetching device characteristics: %w", err)
	}
	spec, err := qrmi.SpecFromMetadata(md)
	if err != nil {
		return nil, err
	}
	if cfg == nil {
		cfg = map[string]string{}
	}
	return &Runtime{resource: res, spec: spec, metadata: md, cfg: cfg}, nil
}

// NewRuntimeFor is the one-call path CLIs use: profile catalogue + --qpu
// flag + environment → bound runtime.
func NewRuntimeFor(qpuFlag, profilesPath string, environ []string) (*Runtime, error) {
	profiles, err := LoadProfiles(profilesPath)
	if err != nil {
		return nil, err
	}
	cfg, err := profiles.Resolve(qpuFlag, environ)
	if err != nil {
		return nil, err
	}
	return NewRuntime(cfg)
}

// Target returns the bound resource's identity.
func (r *Runtime) Target() string { return r.resource.Target() }

// Spec returns the device characteristics fetched at bind time.
func (r *Runtime) Spec() qir.DeviceSpec { return *r.spec }

// Metadata returns the full metadata map fetched at bind time.
func (r *Runtime) Metadata() map[string]string {
	out := make(map[string]string, len(r.metadata))
	for k, v := range r.metadata {
		out[k] = v
	}
	return out
}

// Validate checks a program against the bound target without running it —
// "ensuring program validity at the point of execution" (§2.1).
func (r *Runtime) Validate(p *qir.Program) error {
	return p.Validate(r.spec)
}

// Execute validates and runs one program to completion.
func (r *Runtime) Execute(p *qir.Program) (*qir.Result, error) {
	if err := r.Validate(p); err != nil {
		return nil, fmt.Errorf("core: program invalid for %s: %w", r.Target(), err)
	}
	res, err := qrmi.RunProgram(r.resource, p, maxPolls)
	if err != nil {
		return nil, fmt.Errorf("core: executing on %s: %w", r.Target(), err)
	}
	if res.Metadata == nil {
		res.Metadata = map[string]string{}
	}
	res.Metadata["resource"] = r.cfg["resource"]
	return res, nil
}
