package loadgen

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/telemetry"
	"hpcqc/internal/workload"
)

func TestPoissonRateAndDeterminism(t *testing.T) {
	p := &Poisson{RatePerHour: 120}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	count := func(seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		n := 0
		for at := time.Duration(0); ; {
			at = p.Next(rng, at)
			if at >= 10*time.Hour {
				break
			}
			n++
		}
		return n
	}
	n1, n2 := count(7), count(7)
	if n1 != n2 {
		t.Fatalf("same seed produced %d then %d arrivals", n1, n2)
	}
	// 10h at 120/h = 1200 expected; allow ±15%.
	if n1 < 1020 || n1 > 1380 {
		t.Fatalf("poisson 120/h over 10h produced %d arrivals", n1)
	}
	if (&Poisson{}).Validate() == nil {
		t.Fatal("zero-rate poisson validated")
	}
}

func TestBurstyPhasesAndMonotonicity(t *testing.T) {
	b := &Bursty{BurstRatePerHour: 600, IdleRatePerHour: 0, MeanBurst: 10 * time.Minute, MeanIdle: 50 * time.Minute}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	prev := time.Duration(0)
	n := 0
	for at := time.Duration(0); ; {
		at = b.Next(rng, at)
		if at >= 12*time.Hour {
			break
		}
		if at <= prev {
			t.Fatalf("arrival %d at %s not after %s", n, at, prev)
		}
		prev = at
		n++
	}
	// 1/6 duty cycle at 600/h ≈ 100/h mean → ~1200 over 12h; wide tolerance,
	// burstiness makes the variance large.
	if n < 600 || n > 1800 {
		t.Fatalf("bursty process produced %d arrivals over 12h", n)
	}
	if (&Bursty{BurstRatePerHour: 1}).Validate() == nil {
		t.Fatal("bursty with zero phase lengths validated")
	}
}

func TestDiurnalRateEnvelope(t *testing.T) {
	d := &Diurnal{BaseRatePerHour: 30, PeakRatePerHour: 300, Peak: 14 * time.Hour}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := d.Rate(14 * time.Hour); math.Abs(r-300) > 1e-9 {
		t.Fatalf("rate at peak = %g, want 300", r)
	}
	if r := d.Rate(2 * time.Hour); math.Abs(r-30) > 1e-9 {
		t.Fatalf("rate at trough = %g, want 30", r)
	}
	// Arrivals cluster around the peak: the densest 6h window should hold
	// more than a third of a day's arrivals.
	rng := rand.New(rand.NewSource(3))
	perHour := make([]int, 24)
	for at := time.Duration(0); ; {
		at = d.Next(rng, at)
		if at >= 24*time.Hour {
			break
		}
		perHour[int(at.Hours())]++
	}
	total, window := 0, 0
	for h, n := range perHour {
		total += n
		if h >= 11 && h < 17 {
			window += n
		}
	}
	if total == 0 || float64(window)/float64(total) < 0.34 {
		t.Fatalf("peak window holds %d/%d arrivals; diurnal shape missing", window, total)
	}
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	cfg := Config{Seed: 42, Horizon: 6 * time.Hour, Process: &Poisson{RatePerHour: 100}}
	tr1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := tr1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same config produced different traces")
	}
	if err := tr1.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr1.Records) < 400 {
		t.Fatalf("6h at 100/h produced only %d records", len(tr1.Records))
	}
	classes := map[string]int{}
	patterns := map[string]int{}
	for _, r := range tr1.Records {
		classes[r.Class]++
		patterns[r.Pattern]++
		if r.Shots < 1 || r.ExpectedQPUSeconds <= 0 {
			t.Fatalf("record %d has shots=%d expected=%g", r.Seq, r.Shots, r.ExpectedQPUSeconds)
		}
	}
	for _, c := range []string{"production", "test", "dev"} {
		if classes[c] == 0 {
			t.Fatalf("class %s absent from trace: %v", c, classes)
		}
	}
	if len(patterns) != 3 {
		t.Fatalf("pattern mix incomplete: %v", patterns)
	}
	// Dev dominates under the default 1:2:7 mix.
	if classes["dev"] <= classes["production"] {
		t.Fatalf("class mix inverted: %v", classes)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, err := Generate(Config{Seed: 5, Horizon: time.Hour, Process: &Poisson{RatePerHour: 60}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != tr.Header {
		t.Fatalf("header round trip: %+v != %+v", got.Header, tr.Header)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count %d != %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d round trip: %+v != %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestTraceValidation(t *testing.T) {
	base := func() *Trace {
		tr, err := Generate(Config{Seed: 1, Horizon: 30 * time.Minute, Process: &Poisson{RatePerHour: 60}})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := base()
	tr.Header.Version = 99
	if tr.Validate() == nil {
		t.Fatal("future version accepted")
	}
	tr = base()
	tr.Header.Format = "something-else"
	if tr.Validate() == nil {
		t.Fatal("foreign format accepted")
	}
	tr = base()
	if len(tr.Records) > 1 {
		tr.Records[0], tr.Records[1] = tr.Records[1], tr.Records[0]
		if tr.Validate() == nil {
			t.Fatal("out-of-order arrivals accepted")
		}
	}
	// Every arrival before the epoch is refused, −1 included (the
	// monotonicity walk once started below zero and let exactly −1 through).
	for _, at := range []int64{-1, -2} {
		tr = base()
		tr.Records[0].AtUS = at
		if tr.Validate() == nil {
			t.Fatalf("arrival at %dus accepted", at)
		}
	}
	tr = base()
	tr.Records[0].Class = "vip"
	if tr.Validate() == nil {
		t.Fatal("unknown class accepted")
	}
	tr = base()
	tr.Records[0].Shots = 0
	if tr.Validate() == nil {
		t.Fatal("zero-shot record accepted")
	}
	// The daemon refuses a duration hint below zero, so the trace does too;
	// -0 is zero.
	for _, hint := range []float64{-5, math.NaN(), math.Inf(1)} {
		tr = base()
		tr.Records[0].ExpectedQPUSeconds = hint
		if tr.Validate() == nil {
			t.Fatalf("duration hint %g accepted", hint)
		}
	}
	tr = base()
	tr.Records[0].ExpectedQPUSeconds = math.Copysign(0, -1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("duration hint -0 refused: %v", err)
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestClassMixSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := ClassMix{Production: 1, Test: 0, Dev: 0}
	for i := 0; i < 20; i++ {
		c, err := m.Sample(rng)
		if err != nil || c.String() != "production" {
			t.Fatalf("pure production mix sampled %v (%v)", c, err)
		}
	}
	if _, err := (ClassMix{}).Sample(rng); err == nil {
		t.Fatal("empty class mix sampled")
	}
}

func TestWorkloadMixSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := workload.Mix{QCHeavy: 1, CCHeavy: 1, Balanced: 2}
	seen := map[string]int{}
	for i := 0; i < 400; i++ {
		p, err := m.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(p)]++
	}
	if len(seen) != 3 {
		t.Fatalf("mix sampled %v", seen)
	}
	if seen["qc-balanced"] <= seen["qc-heavy"]/2 {
		t.Fatalf("balanced under-sampled: %v", seen)
	}
}

func TestAnalyzerTelemetryExport(t *testing.T) {
	tr, err := Generate(Config{Seed: 9, Horizon: time.Hour, Process: &Poisson{RatePerHour: 120}})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rep, err := Replay(tr, ReplayConfig{Devices: 2, Seed: 9, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("replay completed no jobs")
	}
	count := exposed(t, reg, `loadgen_wait_seconds_count{class="dev"}`)
	if count == 0 {
		t.Fatal("wait histogram empty for dev class")
	}
	mean := exposed(t, reg, `loadgen_wait_seconds_sum{class="dev"}`) / count
	if want := rep.PerClass["dev"].MeanWaitSeconds; math.Abs(mean-want) > 1e-6 {
		t.Fatalf("telemetry mean wait %g != report mean %g", mean, want)
	}
	if inf := exposed(t, reg, `loadgen_wait_seconds_bucket{class="dev",le="+Inf"}`); inf != count {
		t.Fatalf("wait histogram +Inf bucket %g != count %g", inf, count)
	}
}

func TestQuantiles(t *testing.T) {
	q := quantiles([]float64{5, 1, 3, 2, 4})
	if q.P50 != 3 {
		t.Fatalf("p50 = %g, want 3", q.P50)
	}
	if q.P99 != 5 {
		t.Fatalf("p99 = %g, want 5", q.P99)
	}
	if z := quantiles(nil); z.P50 != 0 || z.P99 != 0 {
		t.Fatalf("empty quantiles = %+v", z)
	}
}

// exposed reads one sample line of reg's exposition text, such as
// `qpu_tasks_total{state="completed"}`, and fails the test when it is absent.
func exposed(t *testing.T, reg *telemetry.Registry, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("%s is not exposed", series)
	return 0
}
