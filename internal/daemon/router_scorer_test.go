package daemon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// onlineFleet builds a DeviceInfo slice with the given per-partition loads
// (expressed as queue depth), all online.
func onlineFleet(loads ...int) []DeviceInfo {
	infos := make([]DeviceInfo, len(loads))
	for i, q := range loads {
		infos[i] = DeviceInfo{ID: "p", Index: i, Status: device.StatusOnline, Queued: q}
	}
	return infos
}

// TestNewRouterErrors: the router factory must reject malformed policy
// strings with actionable errors rather than silently falling back.
func TestNewRouterErrors(t *testing.T) {
	for _, policy := range []string{
		"coin-flip",                        // unknown policy
		"least-loaded:x=1",                 // legacy names take no parameters
		"round-robin:x=1",                  //
		"class-affinity:load=1",            //
		"affinity:bogus=1",                 // unknown weight key
		"affinity:load",                    // not key=value
		"affinity:load=abc",                // weight not a number
		"affinity:load=-1",                 // negative weight
		"affinity:load=0:affinity=0:cap=0", // all-zero weights
	} {
		if _, err := NewRouter(policy); err == nil {
			t.Errorf("NewRouter(%q) accepted", policy)
		}
	}
	// Valid spellings, and the full spelling is the reported name (reports
	// stay self-describing about the weights in force).
	for _, policy := range []string{"affinity", "affinity:load=0.5", "affinity:load=1:affinity=2:cap=3"} {
		r, err := NewRouter(policy)
		if err != nil {
			t.Fatalf("NewRouter(%q): %v", policy, err)
		}
		if r.Name() != policy {
			t.Fatalf("NewRouter(%q).Name() = %q", policy, r.Name())
		}
	}
}

// TestAffinityWeightNormalization: weights are ratios, not magnitudes —
// scaling them all by a constant must not change a single pick.
func TestAffinityWeightNormalization(t *testing.T) {
	a, err := NewRouter("affinity")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRouter("affinity:load=60:affinity=30:cap=10")
	if err != nil {
		t.Fatal(err)
	}
	warm := newProgLRU(4)
	warm.touch(42)
	scenarios := [][]DeviceInfo{
		onlineFleet(0, 0, 0),
		onlineFleet(3, 1, 2),
		onlineFleet(1, 1, 1),
		onlineFleet(0, 5, 0),
	}
	// Warm partition 1 in every scenario so the affinity scorer contributes.
	for _, infos := range scenarios {
		infos[1].cache = warm
		for _, j := range []*Job{{Class: sched.ClassDev}, {Class: sched.ClassProduction, progHash: 42}} {
			if pa, pb := a.Pick(j, infos), b.Pick(j, infos); pa != pb {
				t.Fatalf("scaled weights diverge: %d vs %d on %+v", pa, pb, infos)
			}
		}
	}
}

// TestAffinityZeroWeightDegeneration: zeroing the affinity and capability
// weights must reproduce the least-loaded pick sequence exactly — the blend
// degenerates to its load term.
func TestAffinityZeroWeightDegeneration(t *testing.T) {
	blend, err := NewRouter("affinity:load=1:affinity=0:cap=0")
	if err != nil {
		t.Fatal(err)
	}
	ll := NewLeastLoadedRouter()
	warm := newProgLRU(4)
	warm.touch(7)
	for _, infos := range [][]DeviceInfo{
		onlineFleet(2, 2, 2), // tie → lowest index
		onlineFleet(4, 1, 3),
		onlineFleet(0, 0, 9),
		onlineFleet(5, 4, 4),
	} {
		// Even a warm cache must not matter at weight 0.
		infos[2].cache = warm
		j := &Job{Class: sched.ClassDev, progHash: 7}
		if pb, pl := blend.Pick(j, infos), ll.Pick(j, infos); pb != pl {
			t.Fatalf("zero-weight blend diverges from least-loaded: %d vs %d on %+v", pb, pl, infos)
		}
	}
}

// TestWeightedTieBreakDeterminism: equal combined scores resolve to the
// lowest fleet index, every time — the weighted core inherits the repo-wide
// determinism contract.
func TestWeightedTieBreakDeterminism(t *testing.T) {
	r, err := NewRouter("affinity")
	if err != nil {
		t.Fatal(err)
	}
	// Two partitions, dev job: dev's class home (index 2) is out of range, so
	// every scorer grades the pair identically — a genuine combined-score tie.
	infos := onlineFleet(1, 1)
	for i := 0; i < 10; i++ {
		if idx := r.Pick(&Job{Class: sched.ClassDev}, infos); idx != 0 {
			t.Fatalf("pick %d: tie resolved to %d, want 0", i, idx)
		}
	}
	// On a home-sized fleet the capability prior deliberately breaks the tie
	// toward the class home.
	if idx := r.Pick(&Job{Class: sched.ClassDev}, onlineFleet(1, 1, 1)); idx != 2 {
		t.Fatalf("dev-home tiebreak = %d, want 2", idx)
	}
}

// TestRoundRobinPresetRotation: the scorer-based round-robin preset must
// rotate across the eligible set exactly like the historical router,
// skipping maintenance partitions.
func TestRoundRobinPresetRotation(t *testing.T) {
	rr := NewRoundRobinRouter()
	infos := onlineFleet(0, 0, 0)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if idx := rr.Pick(&Job{}, infos); idx != w {
			t.Fatalf("pick %d = %d, want %d", i, idx, w)
		}
	}
	// Partition 1 in maintenance: rotation continues over {0, 2}.
	infos[1].Status = device.StatusMaintenance
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		seen[rr.Pick(&Job{}, infos)]++
	}
	if seen[1] != 0 || seen[0] != 2 || seen[2] != 2 {
		t.Fatalf("maintenance-aware rotation spread = %v", seen)
	}
}

// TestAffinitySteering: warmth breaks backlog ties toward the warm
// partition, but idle capacity still beats warmth under the default weights
// — the blend is a tiebreaker, not a magnet.
func TestAffinitySteering(t *testing.T) {
	r, err := NewRouter("affinity")
	if err != nil {
		t.Fatal(err)
	}
	warm := newProgLRU(4)
	warm.touch(99)
	j := &Job{Class: sched.ClassDev, progHash: 99}

	// Equal backlog: the warm partition wins.
	tied := onlineFleet(1, 1)
	tied[1].cache = warm
	if idx := r.Pick(j, tied); idx != 1 {
		t.Fatalf("equal-load pick = %d, want warm partition 1", idx)
	}
	// Deep backlog on the warm partition: the idle one wins.
	skewed := onlineFleet(0, 9)
	skewed[1].cache = warm
	if idx := r.Pick(j, skewed); idx != 0 {
		t.Fatalf("skewed-load pick = %d, want idle partition 0", idx)
	}
	// A job the cache has never seen gets no pull at all.
	cold := &Job{Class: sched.ClassDev, progHash: 123}
	if idx := r.Pick(cold, tied); idx != 0 {
		t.Fatalf("cold-program pick = %d, want 0 (no affinity pull)", idx)
	}
}

// TestProgramCacheLRU exercises the O(1) cache directly: hit/miss/eviction
// accounting, LRU order under touches, and the side-effect-free probe.
func TestProgramCacheLRU(t *testing.T) {
	c := newProgLRU(2)
	if hit, _ := c.touch(1); hit {
		t.Fatal("empty cache reported a hit")
	}
	if hit, _ := c.touch(2); hit {
		t.Fatal("miss reported as hit")
	}
	if hit, _ := c.touch(1); !hit {
		t.Fatal("warm entry reported as miss")
	}
	// 2 is now LRU; inserting 3 evicts it.
	if hit, evicted := c.touch(3); hit || !evicted {
		t.Fatalf("insert over full cache: hit=%v evicted=%v", hit, evicted)
	}
	if c.contains(2) {
		t.Fatal("evicted entry still present")
	}
	if !c.contains(1) || !c.contains(3) {
		t.Fatal("expected entries missing after eviction")
	}
	// contains is a pure probe: it must not refresh recency. 1 is LRU here,
	// and probing it repeatedly must not save it from the next eviction.
	for i := 0; i < 5; i++ {
		c.contains(1)
	}
	c.touch(4)
	if c.contains(1) {
		t.Fatal("contains() refreshed recency: probed entry survived eviction")
	}
	st := c.stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Hash 0 is the reserved empty sentinel: never stored, never counted.
	if hit, _ := c.touch(0); hit {
		t.Fatal("zero hash reported a hit")
	}
	if c.stats().Misses != st.Misses {
		t.Fatal("zero hash perturbed counters")
	}
	// A nil cache (caching disabled) is probe-safe.
	var nilCache *progLRU
	if nilCache.contains(1) {
		t.Fatal("nil cache contains() = true")
	}
}

// TestCacheHotPathAllocs: the replay hot path budget — a warm cache touch
// and a weighted Pick must not allocate.
func TestCacheHotPathAllocs(t *testing.T) {
	c := newProgLRU(8)
	c.touch(5)
	if n := testing.AllocsPerRun(100, func() { c.touch(5) }); n != 0 {
		t.Fatalf("warm touch allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.contains(5) }); n != 0 {
		t.Fatalf("contains allocates %.1f/op", n)
	}

	r, err := NewRouter("affinity")
	if err != nil {
		t.Fatal(err)
	}
	infos := onlineFleet(1, 2, 0, 3)
	infos[2].cache = c
	j := &Job{Class: sched.ClassDev, progHash: 5}
	r.Pick(j, infos) // warm the scratch buffers
	if n := testing.AllocsPerRun(100, func() { r.Pick(j, infos) }); n != 0 {
		t.Fatalf("weighted Pick allocates %.1f/op", n)
	}
}

// TestDaemonPickAllocs: the daemon's routing step fills one reused fleet
// snapshot and lends the router one reused scratch job, so a least-loaded
// pick on four partitions allocates nothing — and the scratch job lets go of
// the program once the router has answered.
func TestDaemonPickAllocs(t *testing.T) {
	env := newFleetEnv(t, 4, NewLeastLoadedRouter())
	prog, hash, err := cachedProgram(payload(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	pick := func() {
		ds, err := env.d.pick(sched.ClassDev, "", "", prog, hash)
		if err != nil {
			t.Fatal(err)
		}
		env.d.routeDone(ds)
	}
	if n := testing.AllocsPerRun(100, pick); n != 0 {
		t.Fatalf("a least-loaded pick allocates %.1f/op", n)
	}
	if env.d.routeJob.prog != nil {
		t.Fatal("the scratch job still holds the last program")
	}
}

// cacheEnv boots a single-partition daemon with the program cache enabled
// and a registry attached, for counter and stats assertions.
func cacheEnv(t *testing.T, cacheSize int, setup float64) (*fleetEnv, *telemetry.Registry) {
	t.Helper()
	clk := simclock.New()
	fleet, err := device.NewFleet(1, device.Config{Clock: clk, Seed: 31, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Clock: clk,
		AdminToken: "admin", EnablePreemption: true, Seed: 3,
		ProgramCache: cacheSize, SetupSeconds: setup,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fleetEnv{clk: clk, fleet: fleet, d: d}, reg
}

// TestCacheCountersAndStats: hits, misses and evictions must agree across
// the three reporting surfaces — job annotations, the partition's stats (the
// devices listing's cache block) and the registry counters — and the
// cache-disabled daemon must expose none of them.
func TestCacheCountersAndStats(t *testing.T) {
	env, reg := cacheEnv(t, 1, 2)
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	submit := func(shots int) string {
		t.Helper()
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, shots), Class: sched.ClassDev})
		if err != nil {
			t.Fatal(err)
		}
		env.drain(t, time.Hour)
		return j.ID
	}
	first := submit(10)  // cold: miss
	second := submit(10) // same program: hit
	third := submit(20)  // different program, capacity 1: miss + eviction

	wantCache := map[string]string{first: "miss", second: "hit", third: "miss"}
	for _, j := range env.d.ListJobs() {
		if want, ok := wantCache[j.ID]; ok && j.Cache != want {
			t.Fatalf("job %s cache annotation = %q, want %q", j.ID, j.Cache, want)
		}
	}

	id := env.fleet.IDs()[0]
	st := env.d.fleet[0].cache.stats()
	if st == nil || st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("device cache stats = %+v", st)
	}
	if st.HitRate < 0.33 || st.HitRate > 0.34 {
		t.Fatalf("hit rate = %g, want 1/3", st.HitRate)
	}

	for name, want := range map[string]float64{
		"daemon_program_cache_hits_total":      1,
		"daemon_program_cache_misses_total":    2,
		"daemon_program_cache_evictions_total": 1,
	} {
		if got := exposed(t, reg, fmt.Sprintf("%s{device=%q}", name, id)); got != want {
			t.Fatalf("%s = %g, want %g", name, got, want)
		}
	}

	// Cache-less daemon: no annotations, no stats, no metrics — the
	// byte-identity guarantee for existing deployments.
	off, offReg := cacheEnv(t, 0, 0)
	so, err := off.d.OpenSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.d.Submit(so.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev}); err != nil {
		t.Fatal(err)
	}
	off.drain(t, time.Hour)
	for _, j := range off.d.ListJobs() {
		if j.Cache != "" {
			t.Fatalf("cache-less daemon annotated job: %q", j.Cache)
		}
	}
	if st := off.d.fleet[0].cache.stats(); st != nil {
		t.Fatalf("cache-less partition reports cache stats %+v, want nil", st)
	}
	if strings.Contains(offReg.Expose(), "daemon_program_cache") {
		t.Fatal("cache-less daemon exposes program-cache metrics")
	}
}

// TestCacheConfigValidation: the cache knobs reject nonsense combinations at
// construction time.
func TestCacheConfigValidation(t *testing.T) {
	clk := simclock.New()
	fleet, err := device.NewFleet(1, device.Config{Clock: clk, Seed: 1, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Devices: fleet.Devices(), Clock: clk, AdminToken: "a", Seed: 1}

	bad := base
	bad.ProgramCache = -1
	if _, err := NewDaemon(bad); err == nil {
		t.Fatal("negative ProgramCache accepted")
	}
	bad = base
	bad.SetupSeconds = -1
	if _, err := NewDaemon(bad); err == nil {
		t.Fatal("negative SetupSeconds accepted")
	}
	bad = base
	bad.SetupSeconds = 5 // without a cache there is nothing to miss
	if _, err := NewDaemon(bad); err == nil {
		t.Fatal("SetupSeconds without ProgramCache accepted")
	}
}
