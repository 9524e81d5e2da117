package daemon

import (
	"fmt"

	"hpcqc/internal/device"
	"hpcqc/internal/policy"
	"hpcqc/internal/sched"
)

// Routing and scheduling are independent policy axes over the fleet: a
// Router answers "which partition" at submission time, and each partition's
// sched.ClassQueue answers "what order" on that partition. Keeping the axes
// composable means any router works with any within-class order (FIFO,
// fair-share, shortest-expected-first) without either policy knowing about
// the other.
//
// Since the calibration-affinity work, every router is a preset over one
// weighted multi-scorer core: per pick, each configured scorer grades every
// eligible partition into [0, 1], the grades are combined with normalized
// weights, and the highest combined score wins (ties break to the lowest
// fleet index, so picks are deterministic). The historical single-policy
// routers are single-scorer presets with weight 1 and keep their names and
// exact pick sequences; the parameterized "affinity" router blends the load,
// cache-affinity and class-home scorers with configurable weights. Every
// router picks only among the partitions that can run the job's program.

// DeviceInfo is the router's point-in-time view of one fleet partition.
type DeviceInfo struct {
	// ID is the device's fleet-unique identifier.
	ID string
	// Index is the partition's position in the daemon's fleet slice.
	Index int
	// Status is the device availability state at pick time.
	Status device.Status
	// Queued counts jobs waiting in this partition's class queues.
	Queued int
	// Busy reports whether a job occupies the partition right now.
	Busy bool
	// RunningClass is the class of the occupying job; valid only when Busy.
	RunningClass sched.Class

	// cache is the partition's program cache (nil when disabled) — the
	// affinity scorer's O(1) warm-set probe. The daemon fills it; probes are
	// side-effect-free, so scoring never perturbs cache state.
	cache *progLRU
	// incapable marks a partition whose spec cannot run the job's program,
	// as the daemon's validate stage decided; no router picks it. The zero
	// value, capable, is what a hand-built info means.
	incapable bool
}

// usable reports whether a job may be routed to the partition now: it can
// run the program and is not in maintenance.
func (i DeviceInfo) usable() bool {
	return !i.incapable && i.Status != device.StatusMaintenance
}

// load is the scalar the least-loaded policy minimizes.
func (i DeviceInfo) load() int {
	n := i.Queued
	if i.Busy {
		n++
	}
	return n
}

// Router picks the target partition for a job. Pick must return an index
// into infos; infos always has at least one entry that can run the job and is
// ordered by fleet index. Routers should avoid partitions in maintenance when
// any other is available (jobs routed to a maintenance partition wait for it
// to return).
// Pick runs inside the world, one call at a time, so a Router may keep
// unlocked state across picks (the round-robin scorer's rotation does). job
// and infos are lent for the call only: the daemon reuses both for its next
// pick, so a Router must not retain either (copy what it needs to keep).
type Router interface {
	// Name identifies the policy for logs and status reports.
	Name() string
	// Pick selects the partition index for the job.
	Pick(job *Job, infos []DeviceInfo) int
}

// eligibleInto fills buf with the indices of the usable partitions, or of
// every partition that can run the job when all of those are in maintenance
// (the job then waits out the window, matching single-device semantics).
// Reusing the caller's buffer keeps Pick allocation-free on the dispatch hot
// path.
func eligibleInto(buf []int, infos []DeviceInfo) []int {
	buf = buf[:0]
	for i, info := range infos {
		if info.usable() {
			buf = append(buf, i)
		}
	}
	if len(buf) == 0 {
		for i, info := range infos {
			if !info.incapable {
				buf = append(buf, i)
			}
		}
	}
	return buf
}

// scorer grades every eligible partition for a job into out (aligned with
// el; higher is better, values in [0, 1]). score is called exactly once per
// Pick, which is what lets the round-robin scorer keep rotation state.
type scorer interface {
	score(j *Job, infos []DeviceInfo, el []int, out []float64)
}

// leastLoadedPick is the shared load-balancing fallback: minimum load over
// the eligible set, ties to the lowest fleet index.
func leastLoadedPick(infos []DeviceInfo, el []int) int {
	best := el[0]
	for _, i := range el[1:] {
		if infos[i].load() < infos[best].load() {
			best = i
		}
	}
	return best
}

// loadScorer grades by instantaneous backlog: score 1/(1+load), so an idle
// partition scores 1 and scores decay toward 0 as the queue grows. Argmax
// with lowest-index ties reproduces the classic least-loaded pick exactly.
type loadScorer struct{}

func (loadScorer) score(_ *Job, infos []DeviceInfo, el []int, out []float64) {
	for k, i := range el {
		out[k] = 1.0 / (1.0 + float64(infos[i].load()))
	}
}

// affinityScorer grades by program-cache warmth: 1 when the partition's
// cache holds the job's program fingerprint, else 0. With caching disabled
// (nil cache or no fingerprint) every partition scores 0 and the scorer is
// inert. The probe is an O(1) map lookup per partition — no scans.
type affinityScorer struct{}

func (affinityScorer) score(j *Job, infos []DeviceInfo, el []int, out []float64) {
	for k, i := range el {
		if infos[i].cache.contains(j.progHash) {
			out[k] = 1
		} else {
			out[k] = 0
		}
	}
}

// capScorer is the class grade of the capable partitions (the eligible set
// holds no other): 0.5, raised to 1.0 on the job's class-home partition
// (production → 0, test → 1, dev → 2 — the class-affinity isolation prior).
type capScorer struct{}

func (capScorer) score(j *Job, infos []DeviceInfo, el []int, out []float64) {
	home := -1
	if j != nil {
		if h := int(sched.ClassProduction - j.Class); h >= 0 && h < len(infos) {
			home = h
		}
	}
	for k, i := range el {
		if i == home {
			out[k] = 1
		} else {
			out[k] = 0.5
		}
	}
}

// roundRobinScorer rotates a full score across the eligible set in pick
// order — the stateful scorer behind the round-robin preset. Relies on the
// one-score-call-per-Pick contract to advance exactly once per job.
type roundRobinScorer struct {
	next int
}

func (r *roundRobinScorer) score(_ *Job, _ []DeviceInfo, el []int, out []float64) {
	for k := range el {
		out[k] = 0
	}
	out[r.next%len(el)] = 1
	r.next++
}

// classHomeScorer encodes the class-affinity placement rules as a one-hot
// grade: the partition the rules choose scores 1, everything else 0. The
// rules are deliberately rule-shaped rather than a smooth formula — spill
// only to provably idle capacity, never back onto partition 0 — so the
// scorer computes the rule pick and one-hots it, which makes the policy
// composable with the other scorers without changing its standalone
// behavior one bit.
//
// The rules (unchanged from the pre-scorer classAffinityRouter): each class
// has a home partition (production → 0, test → 1, dev → 2) so production
// traffic is isolated from dev churn. Fleets smaller than the class count
// spill the overflow classes across the non-production partitions (never
// back onto partition 0, which would defeat the isolation), and a home in
// maintenance, or that cannot run the program, falls back to the
// least-loaded eligible partition.
//
// Saturation spill: a non-production job whose home partition is saturated
// (busy with backlog, load ≥ 2) overflows to the lowest-index completely idle
// usable non-home partition, excluding partition 0 — trading a little isolation for
// wait time only when there is provably idle capacity. Production never
// spills: it preempts on its home, and keeping it on partition 0 is the
// isolation the policy exists for.
type classHomeScorer struct{}

func (classHomeScorer) score(j *Job, infos []DeviceInfo, el []int, out []float64) {
	target := classHomePick(j, infos, el)
	for k, i := range el {
		if i == target {
			out[k] = 1
		} else {
			out[k] = 0
		}
	}
}

// classHomePick applies the class-affinity rules over the eligible set.
func classHomePick(j *Job, infos []DeviceInfo, el []int) int {
	home := int(sched.ClassProduction - j.Class)
	if home < 0 {
		// Out-of-range classes (possible for direct Pick callers; Submit
		// validates before routing) fall back to load balancing.
		return leastLoadedPick(infos, el)
	}
	if home < len(infos) {
		if !infos[home].usable() {
			return leastLoadedPick(infos, el)
		}
		if j.Class != sched.ClassProduction && infos[home].load() >= 2 {
			for i := 1; i < len(infos); i++ {
				if i == home {
					continue
				}
				if infos[i].usable() && infos[i].load() == 0 {
					return i
				}
			}
		}
		return home
	}
	// Overflow class on a small fleet: least-loaded among the
	// non-production partitions, keeping partition 0 clear for production.
	best := -1
	for i := 1; i < len(infos); i++ {
		if !infos[i].usable() {
			continue
		}
		if best == -1 || infos[i].load() < infos[best].load() {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoadedPick(infos, el)
}

// weightedRouter is the multi-scorer core every routing policy is a preset
// of. Pick grades the eligible partitions with each positively-weighted
// scorer, combines the grades with the normalized weights, and returns the
// argmax — ties to the lowest fleet index, so the pick sequence is a pure
// function of the (job, fleet-view) sequence. The scratch buffers are reused
// across picks, keeping the hot path allocation-free.
type weightedRouter struct {
	label   string
	scorers []scorer
	weights []float64 // same length as scorers, normalized to sum 1

	el  []int
	buf []float64
	acc []float64
}

// newWeightedRouter normalizes the weights (each ≥ 0 — zero-weight scorers
// are kept but skipped per pick) and rejects a non-positive total.
func newWeightedRouter(label string, scorers []scorer, weights []float64) (*weightedRouter, error) {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("daemon: router %q: at least one scorer weight must be positive", label)
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	return &weightedRouter{label: label, scorers: scorers, weights: norm}, nil
}

func (r *weightedRouter) Name() string { return r.label }

func (r *weightedRouter) Pick(j *Job, infos []DeviceInfo) int {
	r.el = eligibleInto(r.el, infos)
	el := r.el
	if cap(r.acc) < len(el) {
		r.acc = make([]float64, len(el))
		r.buf = make([]float64, len(el))
	}
	acc := r.acc[:len(el)]
	buf := r.buf[:len(el)]
	for k := range acc {
		acc[k] = 0
	}
	for si, s := range r.scorers {
		w := r.weights[si]
		if w == 0 {
			continue
		}
		s.score(j, infos, el, buf)
		for k := range el {
			acc[k] += w * buf[k]
		}
	}
	best := 0
	for k := 1; k < len(el); k++ {
		if acc[k] > acc[best] {
			best = k
		}
	}
	return el[best]
}

// NewRoundRobinRouter spreads submissions evenly across the fleet
// irrespective of load — the cheapest policy, and a fair baseline when jobs
// are similar in size.
func NewRoundRobinRouter() Router {
	r, _ := newWeightedRouter("round-robin", []scorer{&roundRobinScorer{}}, []float64{1})
	return r
}

// NewLeastLoadedRouter balances by instantaneous backlog — the default
// policy, and the right one under heterogeneous job sizes.
func NewLeastLoadedRouter() Router {
	r, _ := newWeightedRouter("least-loaded", []scorer{loadScorer{}}, []float64{1})
	return r
}

// NewClassAffinityRouter isolates classes onto dedicated partitions, trading
// some load balance for fewer cross-class preemptions.
func NewClassAffinityRouter() Router {
	r, _ := newWeightedRouter("class-affinity", []scorer{classHomeScorer{}}, []float64{1})
	return r
}

// AffinityRouter names the weighted scorer-blend router — the one router
// whose picks depend on the program cache, which is why sweeps leave it out
// of "all".
const AffinityRouter = "affinity"

// Routers is the routing axis. The three classic presets take no parameters;
// the affinity router takes one weight per scorer (each ≥ 0, at least one
// positive; normalized internally), e.g.
// "affinity:load=0.6:affinity=0.3:cap=0.1" — omitted keys keep the defaults,
// and the full spelling is the router's name so reports stay self-describing.
var Routers = policy.NewRegistry[Router]("daemon: router")

func init() {
	Routers.Add(NewRoundRobinRouter)
	Routers.AddDefault(NewLeastLoadedRouter)
	Routers.Add(NewClassAffinityRouter)
	Routers.Register(AffinityRouter, "load=W:affinity=W:cap=W", func(s *policy.Spec) (Router, error) {
		// Default weights: load still dominates (idle capacity beats warmth
		// when the spread is large), warmth breaks backlog near-ties (a 0.3
		// bonus outweighs the load-score gap between, say, 3 and 5 queued
		// jobs), and the class-home grade is a thin prior.
		weights := []float64{0.6, 0.3, 0.1}
		err := s.Apply(
			policy.Float("load", policy.NonNegative, policy.Into(&weights[0])),
			policy.Float("affinity", policy.NonNegative, policy.Into(&weights[1])),
			policy.Float("cap", policy.NonNegative, policy.Into(&weights[2])))
		if err != nil {
			return nil, err
		}
		scorers := []scorer{loadScorer{}, affinityScorer{}, capScorer{}}
		return newWeightedRouter(s.String(), scorers, weights)
	})
}

// NewRouter builds a router from its spec — the lookup behind qcsd's -router
// flag and the sweep axis values.
func NewRouter(spec string) (Router, error) { return Routers.New(spec) }
