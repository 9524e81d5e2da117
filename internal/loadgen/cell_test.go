package loadgen

// Cell names one sweep combination across every axis. Zero values mean the
// axis default and match cells from sweeps that never crossed that axis: an
// empty policy (or the axis default by name) is the default-policy cell, empty
// Preemption (or "on") is preemptive dispatch, FleetSize 0 is the sweep-wide
// device count, and RateScale/ShotScale 0 (or 1) are unscaled.
type Cell struct {
	Router     string
	Scheduler  string
	Admission  string
	Priority   string
	FleetSize  int
	Preemption string
	RateScale  float64
	ShotScale  float64
}

// Find returns the report for one policy triple, or nil. With more axes in
// play it returns the first match in canonical axis order (the all-defaults
// cell when present); use FindCell to pin every axis.
func (s *SweepReport) Find(router, scheduler, admissionPolicy string) *Report {
	for _, r := range s.Results {
		if r.Router == router && r.Scheduler == scheduler && r.Admission == admissionPolicy {
			return r
		}
	}
	return nil
}

// FindCell returns the report for one fully pinned combination, or nil. The
// cell is normalized through the same stamping rule that labels reports (see
// ReplayConfig.stamp), so FindCell finds the same cell whether the caller
// spells a default as its zero value or explicitly.
func (s *SweepReport) FindCell(c Cell) *Report {
	var want Report
	(&ReplayConfig{Router: c.Router, Scheduler: c.Scheduler, Admission: c.Admission, Priority: c.Priority,
		DisablePreemption: c.Preemption == "off", RateScale: c.RateScale, ShotScale: c.ShotScale}).stamp(&want)
	// Cells carry a fleet size only when the sweep crossed fleet sizes; in
	// that case every cell is stamped, so "the default" spells out as the
	// sweep-wide device count, and vice versa for single-fleet sweeps.
	want.FleetSize = c.FleetSize
	if len(s.FleetSizes) > 0 {
		if want.FleetSize == 0 {
			want.FleetSize = s.Devices
		}
	} else if want.FleetSize == s.Devices {
		want.FleetSize = 0
	}
	for _, r := range s.Results {
		if r.Router == want.Router && r.Scheduler == want.Scheduler && r.Admission == want.Admission &&
			r.Priority == want.Priority && r.FleetSize == want.FleetSize && r.Preemption == want.Preemption &&
			r.RateScale == want.RateScale && r.ShotScale == want.ShotScale {
			return r
		}
	}
	return nil
}
