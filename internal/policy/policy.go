// Package policy is the one registry and spec grammar behind every pluggable
// pipeline axis (routing, within-class order, admission, priority). A policy
// is selected by a spec string
//
//	spec  = name [ ":" param { ":" param } ]
//	param = key "=" value
//
// with colons rather than commas between parameters, so a parameterized spec
// survives inside a comma-separated sweep-axis list. The empty spec selects
// the axis default. Every rejection reads
//
//	<axis> "<spec>": <problem>
//
// whichever axis raised it. An axis is a Registry; adding a policy to it is
// one Add or Register call.
package policy

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Registry is one axis: its policies by name, in registration order (the
// canonical order sweeps and help texts list them in).
type Registry[T interface{ Name() string }] struct {
	axis    string
	def     string
	entries []entry[T]
}

type entry[T any] struct {
	name, paramUsage string
	ctor             func(*Spec) (T, error)
}

// NewRegistry returns an empty axis. axis prefixes its errors, e.g.
// "daemon: router".
func NewRegistry[T interface{ Name() string }](axis string) *Registry[T] {
	return &Registry[T]{axis: axis}
}

// Register adds a policy under name. paramUsage documents its parameters for
// Usage (e.g. "load=W:cap=W"); a policy registered with an empty paramUsage
// takes none, and a spec that gives it any is rejected before ctor runs.
func (r *Registry[T]) Register(name, paramUsage string, ctor func(*Spec) (T, error)) {
	if r.find(name) != nil {
		panic(fmt.Sprintf("%s %q registered twice", r.axis, name))
	}
	r.entries = append(r.entries, entry[T]{name, paramUsage, ctor})
}

// Add registers a parameterless policy under the name its instances report.
func (r *Registry[T]) Add(ctor func() T) {
	r.Register(ctor().Name(), "", func(*Spec) (T, error) { return ctor(), nil })
}

// AddDefault is Add for the policy the empty spec selects.
func (r *Registry[T]) AddDefault(ctor func() T) {
	r.def = ctor().Name()
	r.Add(ctor)
}

func (r *Registry[T]) find(name string) *entry[T] {
	for i := range r.entries {
		if r.entries[i].name == name {
			return &r.entries[i]
		}
	}
	return nil
}

// New builds the policy a spec selects.
func (r *Registry[T]) New(spec string) (T, error) {
	var zero T
	if spec == "" {
		spec = r.def
	}
	name, params, hasParams := strings.Cut(spec, ":")
	s := &Spec{axis: r.axis, text: spec}
	e := r.find(name)
	if e == nil {
		return zero, s.errorf("unknown name (want %s)", r.Usage())
	}
	if hasParams && e.paramUsage == "" {
		return zero, s.errorf("%s takes no parameters", name)
	}
	if hasParams {
		for _, kv := range strings.Split(params, ":") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || key == "" || val == "" {
				return zero, s.errorf("parameter %q is not key=value", kv)
			}
			for _, seen := range s.params {
				if seen[0] == key {
					return zero, s.errorf("parameter %q given twice", key)
				}
			}
			s.params = append(s.params, [2]string{key, val})
		}
	}
	return e.ctor(s)
}

// Names lists the registered policy names in registration order.
func (r *Registry[T]) Names() []string {
	names := make([]string, len(r.entries))
	for i, e := range r.entries {
		names[i] = e.name
	}
	return names
}

// Default is the name the empty spec selects.
func (r *Registry[T]) Default() string { return r.def }

// Usage renders the axis for help texts and errors: every name, each
// parameterized one followed by its bracketed parameter usage.
func (r *Registry[T]) Usage() string {
	parts := r.Names()
	for i, e := range r.entries {
		if e.paramUsage != "" {
			parts[i] += "[:" + e.paramUsage + "]"
		}
	}
	return strings.Join(parts, ", ")
}

// Spec is one parsed spec, handed to a parameterized policy's constructor.
type Spec struct {
	axis, text string
	params     [][2]string // key, value — in spec order, keys distinct
}

// String is the full spelling, parameters included — what a parameterized
// policy reports as its Name(), so reports tell tunings apart.
func (s *Spec) String() string { return s.text }

func (s *Spec) errorf(format string, args ...any) error {
	return fmt.Errorf("%s %q: %s", s.axis, s.text, fmt.Sprintf(format, args...))
}

// Apply hands each parameter of the spec, in spec order, to the Param that
// declares its key: later parameters see the effect of earlier ones. A key no
// Param declares, or a value its Param refuses, is an error.
func (s *Spec) Apply(declared ...Param) error {
next:
	for _, p := range s.params {
		for _, d := range declared {
			if d.key != p[0] {
				continue
			}
			if !d.set(p[1]) {
				return s.errorf("%s=%q is not %s", p[0], p[1], d.want)
			}
			continue next
		}
		keys := make([]string, len(declared))
		for i, d := range declared {
			keys[i] = d.key
		}
		return s.errorf("unknown parameter %q (want %s)", p[0], strings.Join(keys, ", "))
	}
	return nil
}

// Param declares one parameter key: how its value parses, the range it must
// lie in, and where it goes.
type Param struct {
	key, want string
	set       func(val string) bool
}

// Range is the set a numeric parameter must lie in, with its wording for
// errors. NaN lies in none of them.
type Range struct {
	has  func(float64) bool
	want string
}

// The ranges the built-in policies declare.
var (
	Positive    = Range{func(v float64) bool { return v > 0 }, "> 0"}
	NonNegative = Range{func(v float64) bool { return v >= 0 }, ">= 0"}
	AtLeastOne  = Range{func(v float64) bool { return v >= 1 }, ">= 1"}
	Fraction    = Range{func(v float64) bool { return v >= 0 && v <= 1 }, "in [0, 1]"}
)

func param[V any](key, kind string, r Range, parse func(string) (V, error), num func(V) float64, set func(V)) Param {
	return Param{key, kind + " " + r.want, func(val string) bool {
		v, err := parse(val)
		if err != nil || !r.has(num(v)) {
			return false
		}
		set(v)
		return true
	}}
}

// Duration declares a key whose value is a time.ParseDuration string; the
// range is in seconds.
func Duration(key string, r Range, set func(time.Duration)) Param {
	return param(key, "a duration", r, time.ParseDuration, time.Duration.Seconds, set)
}

// Float declares a key whose value is a decimal number.
func Float(key string, r Range, set func(float64)) Param {
	parse := func(val string) (float64, error) { return strconv.ParseFloat(val, 64) }
	return param(key, "a number", r, parse, func(f float64) float64 { return f }, set)
}

// Int declares a key whose value is a decimal integer.
func Int(key string, r Range, set func(int)) Param {
	return param(key, "an integer", r, strconv.Atoi, func(n int) float64 { return float64(n) }, set)
}

// Into is the setter that stores a parsed value in *dst.
func Into[T any](dst *T) func(T) { return func(v T) { *dst = v } }
