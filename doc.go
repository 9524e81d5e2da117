// Package hpcqc is a reproduction of "Towards a user-centric HPC-QC
// environment" (Wennersteen, Moreau, Nober, Beji — SC Workshops '25): a
// portable runtime environment for hybrid quantum-classical programs, a
// middleware daemon providing a second level of scheduling below the HPC
// batch scheduler, multi-SDK frontends over a vendor-neutral resource
// management interface, and a full observability stack — with every hardware
// and site dependency (neutral-atom QPU, Slurm, a metrics stack) substituted
// by faithful simulators so the complete system runs offline.
//
// # Fleet architecture
//
// The middleware daemon manages a fleet of N simulated QPU partitions
// (device.Fleet) rather than a single device. Its submit path is an
// explicit four-stage pipeline — admission → routing → queueing →
// dispatch — each stage an independent, composable policy axis. An axis is
// a registry of named policies (internal/policy); a policy is selected by a
// spec name[:key=value...], and the registries are the one list of names —
// `qcsd -h` and `qcload sweep -h` print them, README tabulates them:
//
//   - Admission ("who enters, at what class"): an admission.Policy from
//     the admission.Policies registry — e.g. slo-guard, an SLO feedback
//     controller that sheds or down-classes best-effort work when
//     production p99 targets are at risk; production is never shed.
//     Rejections are terminal job records with a reason, surfaced as
//     HTTP 429 and daemon_admission_* counters. qcsd selects the policy
//     with -admission SPEC.
//   - Routing ("which partition"): a daemon.Router from daemon.Routers
//     picks the target partition at submission time. qcsd selects it
//     with -devices N -router SPEC; submissions may also pin a named
//     partition (pins bypass the router, never the admission door).
//   - Queueing ("what order"): each partition keeps its own
//     sched.ClassQueue with the paper's priority classes; a
//     daemon.OrderPolicy from daemon.Orders orders work within a class,
//     composed with a daemon.PriorityPolicy from daemon.Priorities (the
//     dynamic-urgency axis; qcsd -priority SPEC).
//   - Dispatch ("when, whom to preempt"): production preemption,
//     confined to the victim's partition; the waits and slowdowns it
//     produces feed back into the admission stage.
//
// Dispatch is concurrent across partitions — per-device queues, running
// slots and dispatch loops — so one partition's backlog never serializes the
// rest. Preempted jobs are re-routed through the router onto idle partitions
// (cross-partition requeue) unless pinned. QRMI resources acquire against a
// named partition (qpu_partitions/qpu_partition config keys, or
// daemon.Client.Partition over HTTP). Per-partition queue depths and
// utilization surface in the admin StatusReport, the daemon_device_* gauges,
// and `qctl devices`.
//
// # Load generation and policy what-ifs
//
// internal/loadgen drives the fleet with production-shaped traffic: Poisson,
// bursty and diurnal arrival processes (and closed-loop think-time users)
// composed with the Table 1 class/pattern mixes, a versioned JSONL trace
// format with record and deterministic replay, a Parallel Workloads Archive
// SWF importer, an SLO analyzer over the daemon's job lifecycle events
// (per-class/per-partition p50/p95/p99 wait and slowdown plus shed-rate and
// goodput accounting, exported through telemetry histograms), and a what-if
// sweep that replays one trace against the full router × scheduler ×
// admission matrix concurrently. cmd/qcload is the CLI: gen, capture,
// import, info, replay, sweep.
//
// # Testing and benchmarks
//
// `make test` is the fast tier-1 gate (short mode); `make test-full` adds
// the long experiment reproductions, and `make test-race` covers the
// concurrent fleet paths. The benchmarks in bench_test.go regenerate every
// table and figure of the paper; BenchmarkFleetDispatch measures job
// throughput scaling from 1 to 4 partitions and BenchmarkLoadgenSweep the
// policy-matrix replay hot path (`make bench-json` records both to
// BENCH_fleet.json). Run with:
//
//	go test -bench='BenchmarkFleetDispatch|BenchmarkLoadgen' -run='^$' .
//
// See README.md for the architecture overview and qcload quickstart,
// DESIGN.md for the system inventory and experiment index, and
// EXPERIMENTS.md for how each result is regenerated. `go run ./cmd/hpcsim`
// prints the experiment tables as text.
package hpcqc
