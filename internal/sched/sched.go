// Package sched is the serving queue of the second-level scheduler the
// paper's middleware daemon adds below the HPC batch scheduler (§3.3, §3.5):
// the priority classes with production preemption, the Table 1 workload-hint
// taxonomy, and ClassQueue, the per-partition queue internal/daemon orders and
// pops. It imports nothing outside the standard library; Table 1's hybrid
// jobs run through this queue too, driven by internal/experiments.
package sched

import "fmt"

// Class is a job priority class, mirroring the paper's queue taxonomy:
// production preempts everything, test runs above dev.
type Class int

const (
	// ClassDev is low-priority development work.
	ClassDev Class = iota
	// ClassTest is medium-priority test/scalability runs.
	ClassTest
	// ClassProduction is top priority and may preempt lower classes.
	ClassProduction
)

func (c Class) String() string {
	switch c {
	case ClassProduction:
		return "production"
	case ClassTest:
		return "test"
	default:
		return "dev"
	}
}

// ParseClass maps a class name onto the taxonomy.
func ParseClass(s string) (Class, error) {
	switch s {
	case "production":
		return ClassProduction, nil
	case "test":
		return ClassTest, nil
	case "dev":
		return ClassDev, nil
	default:
		return 0, fmt.Errorf("sched: unknown class %q", s)
	}
}

// ClassFromSlurmPriority maps a Slurm partition priority (as propagated by
// the plugin environment) onto a queue class: the daemon "retrieves the
// job's priority from Slurm" (§3.3).
func ClassFromSlurmPriority(p int) Class {
	switch {
	case p >= 100:
		return ClassProduction
	case p >= 50:
		return ClassTest
	default:
		return ClassDev
	}
}

// Pattern is the Table 1 workload taxonomy.
type Pattern string

const (
	// PatternQCHeavy is Table 1 row A: dominant quantum load, minor
	// classical pre/post processing. Hint: sequential QPU queue.
	PatternQCHeavy Pattern = "qc-heavy"
	// PatternCCHeavy is row B: sparse quantum load, heavy classical load.
	// Hint: interleave jobs to kill QPU idle time.
	PatternCCHeavy Pattern = "cc-heavy"
	// PatternBalanced is row C: comparable loads. Hint: fine-grained
	// orchestration.
	PatternBalanced Pattern = "qc-balanced"
)

// ParsePattern validates a hint string.
func ParsePattern(s string) (Pattern, error) {
	switch Pattern(s) {
	case PatternQCHeavy, PatternCCHeavy, PatternBalanced:
		return Pattern(s), nil
	case "":
		return "", nil
	default:
		return "", fmt.Errorf("sched: unknown workload hint %q", s)
	}
}

// ShouldPreempt reports whether an arriving item justifies preempting the
// currently-running class under the paper's policy: only production preempts,
// and only strictly lower classes.
func ShouldPreempt(arriving, running Class) bool {
	return arriving == ClassProduction && running < ClassProduction
}
