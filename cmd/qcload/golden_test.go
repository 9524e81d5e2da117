package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate cmd/qcload/testdata/cli.golden from this build")

// TestQcloadGolden pins what each subcommand makes of its flags, byte for
// byte: one SHA-256 per output of a fixed command line — the generated trace,
// two replays, a generalized sweep, saturate under both objectives, a span
// export and a closed-loop capture. A flag that stops reaching the config
// field it sets moves a digest. Do not re-record it to make a change pass;
// `-update` is for adding a case.
func TestQcloadGolden(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	var out strings.Builder
	digest := func(label string, data []byte) {
		fmt.Fprintf(&out, "%x  %s\n", sha256.Sum256(data), label)
	}
	file := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	stdout := func(args ...string) []byte {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("qcload %s: %v", strings.Join(args, " "), err)
		}
		return buf.Bytes()
	}

	stdout("gen", "--out", trace, "--duration", "1h", "--rate", "120", "--seed", "5", "--deadlines")
	digest("gen --deadlines", file(trace))
	digest("replay", stdout("replay", "--trace", trace))
	digest("replay affinity, cache, slo-urgency, untraced", stdout("replay", "--trace", trace,
		"--router", "affinity", "--cache", "8", "--setup", "2", "--priority", "slo-urgency", "--tracing=false"))
	digest("sweep", stdout("sweep", "--trace", trace, "--routers", "round-robin,least-loaded",
		"--schedulers", "fifo", "--admissions", "accept-all", "--fleets", "1,2", "--preemption", "on,off",
		"--rate-scales", "1,2", "--priorities", "constant,edf", "--workers", "2", "--seed", "3"))
	satArgs := []string{"saturate", "--trace", trace, "--routers", "least-loaded", "--schedulers", "fifo",
		"--admissions", "accept-all", "--max-scale", "8", "--tolerance", "0.25", "--workers", "2"}
	digest("saturate p99-wait", stdout(append(satArgs, "--fleets", "1,2", "--cache", "8", "--setup", "1")...))
	digest("saturate deadline-hit", stdout(append(satArgs, "--objective", "deadline-hit", "--target", "0.9", "--devices", "1")...))
	digest("trace export", stdout("trace", "export", "--trace", trace, "--devices", "2", "--scheduler", "fair-share", "--priority", "edf"))
	captured := filepath.Join(dir, "captured.jsonl")
	stdout("capture", "--out", captured, "--duration", "2h", "--devices", "2")
	digest("capture", file(captured))

	path := filepath.Join("testdata", "cli.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := string(file(path))
	if got := out.String(); got != want {
		t.Fatalf("cli.golden differs from this run:\nwant\n%sgot\n%s", want, got)
	}
}
