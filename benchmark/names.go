package main

// The metric names this harness produces. BENCHMARK.json must list exactly
// these (a test holds the two together), so a layer added here without a
// contract entry — or the reverse — fails before any run.

var endToEndNames = []string{mSetup, mJobsPerSec, mPeakRSS, mTurnaroundP50, mTurnaroundP99}

// countNames are the per-layer metrics that are neither span aggregates nor
// probes.
var countNames = []string{
	"daemon.priority_score.calls",
	"go.allocs_per_job", "go.alloc_kb_per_job", "go.gc_cycles", "go.gc_pause_ms",
	"trace.unattributed_pct", "trace.overhead_pct",
	"loadgen.sweep.wall_ms", "loadgen.sweep.serial_cell_ms_sum", "loadgen.sweep.slowest_cell_ms",
	"loadgen.sweep.parallel_efficiency",
	"serve.submit_p50_us", "serve.submit_p99_us", "serve.scrape_p50_us", "serve.scrape_p99_us",
	"serve.retained_heap_mb",
}

func perLayerNames() []string {
	var names []string
	seen := map[layer]bool{}
	for _, set := range [][]layer{replayLayers, serveLayers} {
		for _, l := range set {
			if !seen[l] {
				seen[l] = true
				names = append(names, layerNames[l]+".calls", layerNames[l]+".self_ms")
			}
		}
	}
	names = append(names, countNames...)
	return append(names, probeMetricNames()...)
}
