package qrmi

import (
	"fmt"
	"strings"
)

// Configuration follows the QRMI convention of environment variables (paper
// §3.4: "Since QRMI is configured through environment variables, it is
// natural to rely on configuration files and environment settings"). The
// variables are:
//
//	QRMI_RESOURCE            name of the resource to bind ("--qpu=<name>")
//	QRMI_RESOURCE_TYPE       resource type (emu-sv, emu-mps, qpu-direct,
//	                         daemon, ...)
//	QRMI_<KEY>               type-specific settings, lower-cased into <key>
//
// Everything accepts an explicit map so tests and the Slurm plugin can
// inject configuration without mutating the process environment.

// EnvPrefix is the namespace for all QRMI variables.
const EnvPrefix = "QRMI_"

// ConfigFromEnviron extracts QRMI_* variables from an environ-style list
// ("KEY=VALUE") into a lower-cased config map without the prefix.
func ConfigFromEnviron(environ []string) map[string]string {
	cfg := make(map[string]string)
	for _, kv := range environ {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		key, val := kv[:eq], kv[eq+1:]
		if !strings.HasPrefix(key, EnvPrefix) {
			continue
		}
		cfg[strings.ToLower(strings.TrimPrefix(key, EnvPrefix))] = val
	}
	return cfg
}

// MergeConfig overlays maps left to right (later wins), returning a new map.
func MergeConfig(maps ...map[string]string) map[string]string {
	out := make(map[string]string)
	for _, m := range maps {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// ResolveResource builds the Resource named by cfg["resource"] with type
// cfg["resource_type"]. This is the single switch point behind the paper's
// `--qpu=<resource>` option: changing the value retargets the program with
// no source change.
func ResolveResource(cfg map[string]string) (Resource, error) {
	name := cfg["resource"]
	if name == "" {
		return nil, fmt.Errorf("qrmi: no resource configured (set %sRESOURCE or --qpu)", EnvPrefix)
	}
	rtype := cfg["resource_type"]
	if rtype == "" {
		return nil, fmt.Errorf("qrmi: resource %q has no %sRESOURCE_TYPE", name, EnvPrefix)
	}
	res, err := NewResource(rtype, cfg)
	if err != nil {
		return nil, fmt.Errorf("qrmi: resolving %q: %w (known types: %s)", name, err, strings.Join(KnownTypes(), ", "))
	}
	return res, nil
}
