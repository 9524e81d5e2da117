package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/loadgen"
)

func TestQcloadGenInfoReplaySweep(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"gen", "--out", trace, "--duration", "1h", "--rate", "120", "--seed", "7"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	tr, err := loadgen.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Jobs < 60 {
		t.Fatalf("1h at 120/h generated %d jobs", tr.Header.Jobs)
	}

	var info bytes.Buffer
	if err := run([]string{"info", "--trace", trace}, &info); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.String(), "jobs_by_class") {
		t.Fatalf("info output missing summary: %s", info.String())
	}

	var replay bytes.Buffer
	if err := run([]string{"replay", "--trace", trace, "--devices", "2", "--router", "round-robin", "--scheduler", "shortest-first"}, &replay); err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(replay.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Router != "round-robin" || rep.Scheduler != "shortest-first" || rep.Completed == 0 {
		t.Fatalf("replay report = %+v", rep)
	}

	// Sweep a reduced matrix twice: same trace + seed must be byte-identical
	// (the CLI-level determinism the acceptance criterion names).
	sweepArgs := []string{"sweep", "--trace", trace, "--devices", "2",
		"--routers", "least-loaded,class-affinity", "--schedulers", "fifo",
		"--admissions", "accept-all"}
	var s1, s2 bytes.Buffer
	if err := run(sweepArgs, &s1); err != nil {
		t.Fatal(err)
	}
	if err := run(sweepArgs, &s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("sweep output not deterministic")
	}
	var sr loadgen.SweepReport
	if err := json.Unmarshal(s1.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 2 {
		t.Fatalf("sweep produced %d results, want 2", len(sr.Results))
	}

	// --out writes the same report to a file.
	outFile := filepath.Join(dir, "report.json")
	if err := run(append(sweepArgs, "--out", outFile), os.Stdout); err != nil {
		t.Fatal(err)
	}
	fromFile, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile, s1.Bytes()) {
		t.Fatal("file report differs from stdout report")
	}
}

// TestQcloadSweepSaturateSmoke is the capacity-planning smoke: a wide-axis
// sweep on a bounded worker pool and a saturate search, each run twice
// through the real CLI, must be byte-identical — and fast enough to ride in
// every `make test` / `make test-full` run.
func TestQcloadSweepSaturateSmoke(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"gen", "--out", trace, "--duration", "30m", "--rate", "120", "--seed", "9"}, os.Stdout); err != nil {
		t.Fatal(err)
	}

	// Generalized axes × explicit worker count: 1 router × 1 scheduler × 1
	// admission × 2 fleets × 2 preemption × 2 rates = 16 cells on 2 workers.
	sweepArgs := []string{"sweep", "--trace", trace, "--workers", "2",
		"--routers", "least-loaded", "--schedulers", "fifo", "--admissions", "accept-all",
		"--fleets", "1,2", "--preemption", "on,off", "--rate-scales", "1,2",
		"--shot-scales", "1,2", "--tracing=false"}
	var s1, s2 bytes.Buffer
	if err := run(sweepArgs, &s1); err != nil {
		t.Fatal(err)
	}
	if err := run(sweepArgs, &s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatal("generalized sweep output not deterministic")
	}
	var sr loadgen.SweepReport
	if err := json.Unmarshal(s1.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 16 {
		t.Fatalf("generalized sweep produced %d cells, want 16", len(sr.Results))
	}
	found := false
	for _, r := range sr.Results {
		found = found || r.Router == "least-loaded" && r.Scheduler == "fifo" && r.Admission == "accept-all" &&
			r.Priority == "" && r.FleetSize == 2 && r.Preemption == "off" && r.RateScale == 2 && r.ShotScale == 2
	}
	if !found {
		t.Fatal("generalized cell missing from CLI sweep report")
	}

	satArgs := []string{"saturate", "--trace", trace,
		"--routers", "least-loaded", "--schedulers", "fifo", "--admissions", "accept-all",
		"--fleets", "1,2", "--max-scale", "8", "--tolerance", "0.25", "--workers", "2"}
	var f1, f2 bytes.Buffer
	if err := run(satArgs, &f1); err != nil {
		t.Fatal(err)
	}
	if err := run(satArgs, &f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f2.Bytes()) {
		t.Fatal("saturate output not deterministic")
	}
	var fr loadgen.FrontierReport
	if err := json.Unmarshal(f1.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 2 || len(fr.Ranking) != 2 {
		t.Fatalf("frontier has %d points / %d ranks, want 2/2", len(fr.Points), len(fr.Ranking))
	}
	for _, pt := range fr.Points {
		if pt.Probes == 0 {
			t.Fatalf("tuple %s searched with zero probes", pt.Tuple())
		}
	}
}

// TestQcloadUnwritableReportFails: a report that cannot be written fails the
// command instead of exiting 0 beside a missing or truncated file — --out at
// a directory or under a missing one for sweep and saturate, a closed stdout
// for replay (which has no --out) and for the other two without --out.
func TestQcloadUnwritableReportFails(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"gen", "--out", trace, "--duration", "20m", "--rate", "120", "--seed", "9"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	closed, err := os.Create(filepath.Join(dir, "closed"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	oneCell := []string{"--trace", trace, "--routers", "least-loaded", "--schedulers", "fifo", "--admissions", "accept-all"}
	for _, tc := range []struct {
		args   []string
		hasOut bool
	}{
		{[]string{"replay", "--trace", trace}, false},
		{append([]string{"sweep"}, oneCell...), true},
		{append([]string{"saturate"}, oneCell...), true},
	} {
		if err := run(tc.args, closed); err == nil {
			t.Errorf("%s onto a closed stdout exited 0", tc.args[0])
		}
		if !tc.hasOut {
			continue
		}
		for _, path := range []string{dir, filepath.Join(dir, "missing", "report.json")} {
			if err := run(append(tc.args, "--out", path), io.Discard); err == nil {
				t.Errorf("%s --out %s exited 0", tc.args[0], path)
			}
		}
	}
}

// TestQcloadProfileFlags: replay and sweep write pprof profiles on request
// without touching the report, and an unwritable profile path is an error,
// not a silently unprofiled run.
func TestQcloadProfileFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	if err := run([]string{"gen", "--out", trace, "--duration", "30m", "--rate", "120", "--seed", "9"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	for _, sub := range [][]string{
		{"replay", "--trace", trace, "--devices", "1", "--scheduler", "fair-share"},
		{"sweep", "--trace", trace, "--routers", "least-loaded", "--admissions", "accept-all"},
	} {
		var plain, profiled bytes.Buffer
		if err := run(sub, &plain); err != nil {
			t.Fatal(err)
		}
		cpu, mem := filepath.Join(dir, sub[0]+".cpu.prof"), filepath.Join(dir, sub[0]+".mem.prof")
		if err := run(append(sub[:len(sub):len(sub)], "--cpuprofile", cpu, "--memprofile", mem), &profiled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
			t.Fatalf("%s: profiling changed the report", sub[0])
		}
		for _, path := range []string{cpu, mem} {
			if st, err := os.Stat(path); err != nil || st.Size() == 0 {
				t.Fatalf("%s: profile %s missing or empty (%v)", sub[0], path, err)
			}
		}
		bad := filepath.Join(dir, "no-such-dir", "x.prof")
		if err := run(append(sub[:len(sub):len(sub)], "--cpuprofile", bad), &bytes.Buffer{}); err == nil {
			t.Fatalf("%s: unwritable --cpuprofile accepted", sub[0])
		}
		if err := run(append(sub[:len(sub):len(sub)], "--memprofile", bad), &bytes.Buffer{}); err == nil {
			t.Fatalf("%s: unwritable --memprofile accepted", sub[0])
		}
	}
}

// TestQcloadGenClosedPointsToCapture: gen has no closed-loop mode. The old
// invocation dies on flag's unknown-flag error, and the usage text flag
// prints beside it names the capture subcommand — that pair is the migration
// message.
func TestQcloadGenClosedPointsToCapture(t *testing.T) {
	var err error
	usage := stderrOf(t, func() {
		err = run([]string{"gen", "--out", filepath.Join(t.TempDir(), "closed.jsonl"), "--mode", "closed"}, io.Discard)
	})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -mode") {
		t.Fatalf("gen --mode closed = %v, want flag's unknown-flag error", err)
	}
	if !strings.Contains(usage, "qcload capture") {
		t.Fatalf("gen usage does not name the capture subcommand:\n%s", usage)
	}
}

// TestQcloadCapturePolicyFlags: capture records a closed-loop run under an
// explicit policy triple — the fix for capture being hardcoded to
// least-loaded/FIFO — and the result is deterministic per triple.
func TestQcloadCapturePolicyFlags(t *testing.T) {
	dir := t.TempDir()
	args := func(out string) []string {
		return []string{"capture", "--out", out, "--duration", "30m",
			"--users", "4", "--think", "1m", "--devices", "2", "--seed", "3",
			"--router", "round-robin", "--scheduler", "shortest-first", "--admission", "token-bucket"}
	}
	t1 := filepath.Join(dir, "t1.jsonl")
	t2 := filepath.Join(dir, "t2.jsonl")
	if err := run(args(t1), os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := run(args(t2), os.Stdout); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(t2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("capture under explicit policies not deterministic")
	}
	tr, err := loadgen.ReadTraceFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Mode != "recorded" || tr.Header.Jobs == 0 {
		t.Fatalf("capture header = %+v", tr.Header)
	}
	// A different policy triple yields a different completion-coupled trace.
	t3 := filepath.Join(dir, "t3.jsonl")
	if err := run([]string{"capture", "--out", t3, "--duration", "30m",
		"--users", "4", "--think", "1m", "--devices", "2", "--seed", "3"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	b3, err := os.ReadFile(t3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b3) {
		t.Fatal("policy triple had no effect on the captured trace")
	}
}

// TestQcloadImportSWF: the import subcommand converts an SWF log into a
// replayable trace.
func TestQcloadImportSWF(t *testing.T) {
	dir := t.TempDir()
	swf := filepath.Join(dir, "jobs.swf")
	if err := os.WriteFile(swf, []byte(strings.Join([]string{
		"; UnitTest SWF fixture",
		"1 0 10 30 4 -1 -1 4 60 -1 1 7 1 1 1 1 -1 -1",
		"2 60 5 45 2 -1 -1 2 60 -1 1 8 1 1 2 1 -1 -1",
		"3 120 0 20 1 -1 -1 1 30 -1 1 7 1 1 3 1 -1 -1",
	}, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "imported.jsonl")
	if err := run([]string{"import", "--in", swf, "--out", trace}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	tr, err := loadgen.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Mode != "imported" || tr.Header.Process != "swf" || tr.Header.Jobs != 3 {
		t.Fatalf("imported header = %+v", tr.Header)
	}
	var rep bytes.Buffer
	if err := run([]string{"replay", "--trace", trace, "--devices", "1"}, &rep); err != nil {
		t.Fatal(err)
	}
	var report loadgen.Report
	if err := json.Unmarshal(rep.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Completed != 3 {
		t.Fatalf("imported replay completed %d/3", report.Completed)
	}
}

func TestQcloadErrors(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"gen", "--out", trace, "--duration", "30m"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"gen"},
		{"gen", "--out", "/tmp/x.jsonl", "--process", "fractal"},
		{"gen", "--out", "/tmp/x.jsonl", "--class-mix", "1:2"},
		{"capture"},
		{"capture", "--out", "/tmp/x.jsonl", "--admission", "bouncer"},
		{"capture", "--out", "/tmp/x.jsonl", "--router", "warp"},
		{"import"},
		{"import", "--in", "/does/not/exist.swf", "--out", "/tmp/x.jsonl"},
		{"import", "--in", "/tmp/x.swf", "--out", "/tmp/x.jsonl", "--format", "pbs"},
		{"info"},
		{"replay"},
		{"replay", "--trace", "/does/not/exist.jsonl"},
		{"sweep"},
		{"sweep", "--trace", "/does/not/exist.jsonl", "--fleets", "two"},
		{"sweep", "--trace", "/does/not/exist.jsonl", "--rate-scales", "fast"},
		{"saturate"},
		{"saturate", "--trace", "/does/not/exist.jsonl"},
		// Only --devices 0 means the default fleet.
		{"replay", "--trace", trace, "--devices", "-3"},
		{"sweep", "--trace", trace, "--devices", "-2"},
		{"saturate", "--trace", trace, "--devices", "-2"},
		{"trace", "export", "--trace", trace, "--devices", "-1"},
		{"capture", "--out", filepath.Join(t.TempDir(), "c.jsonl"), "--duration", "1h", "--devices", "-1"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// registeredPolicies lists every name on every policy axis.
func registeredPolicies() []string {
	names := append(daemon.Routers.Names(), daemon.Orders.Names()...)
	names = append(names, admission.Policies.Names()...)
	return append(names, daemon.Priorities.Names()...)
}

// stderrOf returns what fn writes to os.Stderr. flag.FlagSet prints usage
// there unless told otherwise; the text is far below a pipe's buffer, so no
// reader goroutine.
func stderrOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	fn()
	os.Stderr = stderr
	w.Close()
	text, _ := io.ReadAll(r)
	return string(text)
}

// TestHelpNamesEveryRegisteredPolicy: the policy flags' help text is
// generated from the registries, so `qcload sweep -h` (axis flags) and
// `qcload replay -h` (single-run flags) must mention every registered name.
func TestHelpNamesEveryRegisteredPolicy(t *testing.T) {
	for _, sub := range []string{"sweep", "replay"} {
		var err error
		help := stderrOf(t, func() { err = run([]string{sub, "-h"}, io.Discard) })
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h returned %v, want flag.ErrHelp", sub, err)
		}
		for _, name := range registeredPolicies() {
			if !strings.Contains(help, name) {
				t.Errorf("qcload %s -h does not mention registered policy %q:\n%s", sub, name, help)
			}
		}
	}
}

// TestREADMENamesEveryRegisteredPolicy keeps README's policy-axes table from
// drifting behind the registries: every registered name must appear there in
// code quotes.
func TestREADMENamesEveryRegisteredPolicy(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range registeredPolicies() {
		if !strings.Contains(string(readme), "`"+name) {
			t.Errorf("README.md does not list registered policy `%s`", name)
		}
	}
}
