package daemon

import (
	"strings"
	"testing"

	"hpcqc/internal/admission"
)

// spellings is the accept/reject table of the policy spec grammar across the
// four pipeline axes. name is the constructed policy's Name(), or "" when the
// spelling must be rejected; errHas, when set, is a fragment the rejection
// must carry. The table was recorded from the four hand-written parsers the
// commit before they moved onto internal/policy: every spelling they accepted
// must still yield the same Name(), every one they rejected must stay
// rejected. Rows marked FIX are the deliberate differences the single grammar
// exposed (each notes what the old parser did).
var spellings = []struct {
	axis, spec, name, errHas string
}{
	// --- router ---
	{"router", "", "least-loaded", ""},
	{"router", "round-robin", "round-robin", ""},
	{"router", "least-loaded", "least-loaded", ""},
	{"router", "class-affinity", "class-affinity", ""},
	{"router", "affinity", "affinity", ""},
	{"router", "affinity:load=0.6:affinity=0.3:cap=0.1", "affinity:load=0.6:affinity=0.3:cap=0.1", ""},
	{"router", "affinity:cap=1", "affinity:cap=1", ""},
	{"router", "affinity:load=0", "affinity:load=0", ""},
	{"router", "affinity:load=0:affinity=0:cap=0", "", ""}, // no positive weight
	{"router", "affinity:load=-1", "", ""},
	{"router", "affinity:warm=1", "", "unknown parameter"},
	{"router", "affinity:load", "", "key=value"},
	{"router", "affinity:load=", "", ""},
	{"router", "affinity:load=heavy", "", ""},
	{"router", "affinity:", "", ""},
	{"router", "round-robin:x=1", "", "takes no parameters"},
	{"router", "least-loaded:", "", "takes no parameters"},
	{"router", "coin-flip", "", "unknown"},
	{"router", "affinity:load=1:load=2", "", "twice"}, // FIX: last value silently won
	{"router", "affinity:load=NaN", "", ""},           // FIX: NaN passed the w < 0 check

	// --- scheduler (within-class order) ---
	{"scheduler", "", "fifo", ""},
	{"scheduler", "fifo", "fifo", ""},
	{"scheduler", "fair-share", "fair-share", ""},
	{"scheduler", "shortest-first", "shortest-first", ""},
	{"scheduler", "lifo", "", "unknown"},
	{"scheduler", "fifo:x=1", "", "takes no parameters"},    // FIX: said "unknown scheduler"
	{"scheduler", "fair-share:", "", "takes no parameters"}, // FIX: said "unknown scheduler"

	// --- admission ---
	{"admission", "", "accept-all", ""},
	{"admission", "accept-all", "accept-all", ""},
	{"admission", "queue-depth", "queue-depth", ""},
	{"admission", "token-bucket", "token-bucket", ""},
	{"admission", "slo-guard", "slo-guard", ""},
	{"admission", "slo-guard:wait=45s:warn=0.7", "slo-guard:wait=45s:warn=0.7", ""},
	{"admission", "slo-guard:wait=1ns", "slo-guard:wait=1ns", ""},
	{"admission", "slo-guard:wait=0s", "", ""},
	{"admission", "slo-guard:wait=45", "", ""}, // a duration needs a unit
	{"admission", "slo-guard:window=1ns", "slo-guard:window=1ns", ""},
	{"admission", "slo-guard:window=0s", "", ""},
	{"admission", "slo-guard:slowdown=0.001", "slo-guard:slowdown=0.001", ""},
	{"admission", "slo-guard:slowdown=0", "", ""},
	{"admission", "slo-guard:warn=0", "slo-guard:warn=0", ""},
	{"admission", "slo-guard:warn=1", "slo-guard:warn=1", ""},
	{"admission", "slo-guard:warn=1.01", "", ""},
	{"admission", "slo-guard:warn=-0.01", "", ""},
	{"admission", "slo-guard:shed=1", "slo-guard:shed=1", ""},
	{"admission", "slo-guard:shed=0.99", "", ""},
	{"admission", "slo-guard:min=1", "slo-guard:min=1", ""},
	{"admission", "slo-guard:min=0", "", ""},
	{"admission", "slo-guard:min=1.5", "", ""},
	{"admission", "slo-guard:lateness=0", "slo-guard:lateness=0", ""},
	{"admission", "slo-guard:lateness=-0.1", "", ""},
	{"admission", "slo-guard:bogus=1", "", "unknown parameter"},
	{"admission", "slo-guard:wait", "", "key=value"},
	{"admission", "slo-guard:wait=", "", "key=value"},
	{"admission", "slo-guard:", "", "key=value"},
	{"admission", "slo-guard:wait=45s:", "", "key=value"},
	{"admission", "queue-depth:depth=4", "", "takes no parameters"},
	{"admission", "accept-all:", "", "takes no parameters"},
	{"admission", "bouncer", "", "unknown"},
	{"admission", "slo-guard:wait=30s:wait=90s", "", "twice"}, // FIX: last value silently won
	{"admission", "slo-guard:warn=NaN", "", ""},               // FIX: NaN passed both range comparisons

	// --- priority ---
	{"priority", "", "constant", ""},
	{"priority", "constant", "constant", ""},
	{"priority", "age", "age", ""},
	{"priority", "slo-urgency", "slo-urgency", ""},
	{"priority", "edf", "edf", ""},
	{"priority", "slo-urgency:deadline=120s", "slo-urgency:deadline=120s", ""},
	{"priority", "edf:production=90s", "edf:production=90s", ""},
	{"priority", "edf:deadline=60s:test=5m:dev=0s", "edf:deadline=60s:test=5m:dev=0s", ""},
	{"priority", "edf:dev=0s", "edf:dev=0s", ""}, // 0 removes the class's fallback
	{"priority", "edf:test=-1s", "", ""},
	{"priority", "edf:production=90", "", ""},
	{"priority", "edf:prod=1s", "", "unknown parameter"},
	{"priority", "edf:production", "", "key=value"},
	{"priority", "edf:production=", "", "key=value"},
	{"priority", "edf:", "", "key=value"},
	{"priority", "age:x=1", "", "takes no parameters"},
	{"priority", "constant:", "", "takes no parameters"},
	{"priority", "deadline-first", "", "unknown"},
	{"priority", "edf:production=90s:production=30s", "", "twice"}, // FIX: last value silently won
}

// TestPolicySpellings holds every axis constructor to the recorded table.
func TestPolicySpellings(t *testing.T) {
	type named interface{ Name() string }
	build := map[string]func(string) (named, error){
		"router":    func(s string) (named, error) { return NewRouter(s) },
		"scheduler": func(s string) (named, error) { return NewOrder(s) },
		"admission": func(s string) (named, error) { return admission.NewPolicy(s) },
		"priority":  func(s string) (named, error) { return NewPriority(s) },
	}
	for _, row := range spellings {
		p, err := build[row.axis](row.spec)
		switch {
		case row.name == "" && err == nil:
			t.Errorf("%s %q: accepted as %q, want a rejection", row.axis, row.spec, p.Name())
		case row.name == "" && !strings.Contains(err.Error(), row.errHas):
			t.Errorf("%s %q: rejected with %q, want it to mention %q", row.axis, row.spec, err, row.errHas)
		case row.name != "" && err != nil:
			t.Errorf("%s %q: rejected (%v), want Name() %q", row.axis, row.spec, err, row.name)
		case row.name != "" && p.Name() != row.name:
			t.Errorf("%s %q: Name() = %q, want %q", row.axis, row.spec, p.Name(), row.name)
		}
	}
}
