package telemetry

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// DriftState classifies a monitored calibration parameter.
type DriftState int

const (
	// DriftOK means the parameter tracks its baseline.
	DriftOK DriftState = iota
	// DriftWarning means sustained deviation beyond the warn threshold.
	DriftWarning
	// DriftCritical means deviation beyond the critical threshold; the
	// operations team should schedule recalibration.
	DriftCritical
)

func (s DriftState) String() string {
	switch s {
	case DriftOK:
		return "ok"
	case DriftWarning:
		return "warning"
	case DriftCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// DriftDetector tracks one calibration parameter with a dual EWMA: a slow
// baseline and a fast tracker. Sustained relative deviation between them
// flags drift — the "automated drift detection" the paper lists as the next
// step for QPU observability. It is deliberately simple, dependency-free and
// cheap enough to run per-parameter per-sample.
type DriftDetector struct {
	mu       sync.Mutex
	baseline float64
	tracker  float64
	n        int
}

const (
	baselineAlpha     = 0.01 // slow EWMA coefficient
	trackerAlpha      = 0.3  // fast EWMA coefficient
	warnThreshold     = 0.05 // relative deviation that warns
	criticalThreshold = 0.15 // relative deviation that is critical
)

// NewDriftDetector returns a detector that has seen no sample yet.
func NewDriftDetector() *DriftDetector { return &DriftDetector{} }

// Observe folds in a sample and returns the resulting state.
func (d *DriftDetector) Observe(v float64) DriftState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		d.baseline = v
		d.tracker = v
		d.n = 1
		return DriftOK
	}
	d.n++
	d.tracker = trackerAlpha*v + (1-trackerAlpha)*d.tracker
	// The baseline only absorbs samples while the system is healthy, so a
	// real drift does not silently become the new normal.
	if d.stateLocked() == DriftOK {
		d.baseline = baselineAlpha*v + (1-baselineAlpha)*d.baseline
	}
	return d.stateLocked()
}

// Deviation returns the current relative deviation |tracker-baseline|/|baseline|.
func (d *DriftDetector) Deviation() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deviationLocked()
}

func (d *DriftDetector) deviationLocked() float64 {
	if d.baseline == 0 {
		if d.tracker == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(d.tracker-d.baseline) / math.Abs(d.baseline)
}

// State returns the current classification.
func (d *DriftDetector) State() DriftState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateLocked()
}

func (d *DriftDetector) stateLocked() DriftState {
	dev := d.deviationLocked()
	switch {
	case dev >= criticalThreshold:
		return DriftCritical
	case dev >= warnThreshold:
		return DriftWarning
	default:
		return DriftOK
	}
}

// AlertSeverity grades alert rules.
type AlertSeverity int

const (
	// SeverityWarning pages nobody; it lands on the dashboard.
	SeverityWarning AlertSeverity = iota
	// SeverityCritical is operator-actionable.
	SeverityCritical
)

func (s AlertSeverity) String() string {
	if s == SeverityCritical {
		return "critical"
	}
	return "warning"
}

// AlertRule fires when a predicate holds over the latest sample of a series.
type AlertRule struct {
	Name     string
	Series   string
	Labels   Labels
	Severity AlertSeverity
	// Predicate returns true when the rule should fire for the value.
	Predicate func(v float64) bool
	// For requires the predicate to hold this long before firing,
	// debouncing transients the way Prometheus's `for:` clause does.
	For time.Duration
}

// Alert is a fired rule instance.
type Alert struct {
	Rule     string        `json:"rule"`
	Severity string        `json:"severity"`
	At       time.Duration `json:"at"`
	Value    float64       `json:"value"`
	Message  string        `json:"message"`
}

// AlertManager evaluates rules against a TSDB.
type AlertManager struct {
	db    *TSDB
	mu    sync.Mutex
	rules []*AlertRule
	// pendingSince tracks when each rule's predicate first became true.
	pendingSince map[string]time.Duration
	firing       map[string]bool
}

// NewAlertManager returns a manager bound to the database.
func NewAlertManager(db *TSDB) *AlertManager {
	return &AlertManager{
		db:           db,
		pendingSince: make(map[string]time.Duration),
		firing:       make(map[string]bool),
	}
}

// AddRule registers a rule; duplicate names are rejected.
func (am *AlertManager) AddRule(r *AlertRule) error {
	if r.Name == "" || r.Predicate == nil || r.Series == "" {
		return fmt.Errorf("telemetry: alert rule needs name, series and predicate")
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	for _, existing := range am.rules {
		if existing.Name == r.Name {
			return fmt.Errorf("telemetry: duplicate alert rule %q", r.Name)
		}
	}
	am.rules = append(am.rules, r)
	return nil
}

// Evaluate checks every rule against the latest samples at the given
// simulation time and returns alerts that transitioned into firing.
func (am *AlertManager) Evaluate(now time.Duration) []Alert {
	am.mu.Lock()
	defer am.mu.Unlock()
	var fired []Alert
	for _, r := range am.rules {
		p, ok := am.db.Latest(r.Series, r.Labels)
		if !ok {
			continue
		}
		if !r.Predicate(p.Value) {
			delete(am.pendingSince, r.Name)
			am.firing[r.Name] = false
			continue
		}
		since, pending := am.pendingSince[r.Name]
		if !pending {
			am.pendingSince[r.Name] = now
			since = now
		}
		if now-since >= r.For && !am.firing[r.Name] {
			am.firing[r.Name] = true
			fired = append(fired, Alert{
				Rule:     r.Name,
				Severity: r.Severity.String(),
				At:       now,
				Value:    p.Value,
				Message:  fmt.Sprintf("%s: %s=%g", r.Name, r.Series, p.Value),
			})
		}
	}
	return fired
}

// Firing lists currently-firing rule names, sorted by registration order.
func (am *AlertManager) Firing() []string {
	am.mu.Lock()
	defer am.mu.Unlock()
	var out []string
	for _, r := range am.rules {
		if am.firing[r.Name] {
			out = append(out, r.Name)
		}
	}
	return out
}
