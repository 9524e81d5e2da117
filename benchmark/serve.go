package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// The served path: SDK → daemon.Client → HTTP → pipeline → device → result.
// One rep is one child process of this binary (the `serve-rep` subcommand)
// hosting a fresh daemon behind httptest.NewServer, assembled as qcsd
// assembles it — registry, TSDB, flight recorder, 64-entry program cache —
// but on a TimingOnly fleet whose virtual clock the harness pumps from event
// to event, so wall time measures the middleware and neither timers nor the
// emulator. The clients run in the same child: closed loop, one keep-alive
// connection each, because SDK callers wait for their replies.

type serveWorkload struct {
	name string
	// submitters is the number of closed-loop daemon.Clients; menu the
	// number of distinct programs they cycle through; jobs what one rep
	// submits in total; operator adds a connection scraping the read
	// endpoints beside the (single) submitter's bursts.
	submitters int
	menu       int
	jobs       int
	operator   bool
}

var serveWorkloads = []serveWorkload{
	{name: "serve-submit", submitters: 2, menu: 48, jobs: 4000},
	// 1 024 programs overflow the daemon's 256-entry decode memo.
	{name: "serve-mixed", submitters: 1, menu: 1024, jobs: 4096, operator: true},
}

const (
	// serveBurst is how many TaskStarts a client sends before it collects
	// the results.
	serveBurst = 8
	// serveScrapeCycles is how many times the operator walks its three
	// endpoints per burst, while the burst is in flight. A fixed share of
	// reads per write makes a rep the same work every time; an operator
	// scraping as fast as it can leaves that share to the scheduler.
	serveScrapeCycles = 4
	// serveWarmup is how many jobs run through the full path before timing:
	// connections open, heap grown, decode memo holding what it can.
	serveWarmup = 512
	// serveDevices sizes the fleet, so that routing has a choice to make.
	serveDevices = 4
	// slowCall is the latency above which an operation counts as failed.
	slowCall = time.Second
	// serveChild is the hidden subcommand a rep's child process runs.
	serveChild = "serve-rep"
	adminToken = "bench-admin"
)

func findServeWorkload(name string) *serveWorkload {
	for i := range serveWorkloads {
		if serveWorkloads[i].name == name {
			return &serveWorkloads[i]
		}
	}
	return nil
}

// latencies summarises one kind of client-observed latency within a rep.
type latencies struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	N   int     `json:"n"`
}

func summarize(samples []float64) latencies {
	return latencies{P50: percentile(samples, 50), P99: percentile(samples, 99), N: len(samples)}
}

// serveRepResult is what the child prints: one JSON object on one line.
type serveRepResult struct {
	InputSHA256 string  `json:"input_sha256"`
	SetupS      float64 `json:"setup_s"`
	WallS       float64 `json:"wall_s"`
	Jobs        int     `json:"jobs"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	// Client-observed latency: TaskStart alone, TaskStart sent → TaskResult
	// read, and one operator GET.
	SubmitUS       latencies `json:"submit_us"`
	TurnaroundMS   latencies `json:"turnaround_ms"`
	ScrapeUS       latencies `json:"scrape_us"`
	RetainedHeapMB float64   `json:"retained_heap_mb"`
	Mallocs        uint64    `json:"mallocs"`
	AllocBytes     uint64    `json:"alloc_bytes"`
	GCCycles       uint32    `json:"gc_cycles"`
	GCPauseMS      float64   `json:"gc_pause_ms"`
	// Traced reps only.
	Layers      map[string]float64 `json:"layers,omitempty"`
	ClientWallS float64            `json:"client_wall_s,omitempty"`
	CoveredS    float64            `json:"covered_s,omitempty"`
}

// --- the child ---------------------------------------------------------------

// buildMenu makes n distinct program payloads from the seed: every
// (qubits, shots) pair is a different program to the decode memo and the
// partition program caches.
func buildMenu(seed int64, n int) (menu [][]byte, sha string, err error) {
	const maxQubits = 4
	perQubits := (n + maxQubits - 1) / maxQubits
	rng := rand.New(rand.NewSource(seed))
	sum := sha256.New()
	for _, i := range rng.Perm(perQubits * maxQubits)[:n] {
		p, err := loadgen.BuildProgram(1+i%maxQubits, 10+i/maxQubits).MarshalJSON()
		if err != nil {
			return nil, "", err
		}
		menu = append(menu, p)
		sum.Write(p)
	}
	return menu, hex.EncodeToString(sum.Sum(nil)), nil
}

// pump advances the virtual clock whenever a job is outstanding, jumping
// straight to each next event: the served daemon's equivalent of qcsd's
// wall-clock pump with the waiting taken out.
type pump struct {
	clk         *simclock.Clock
	tr          *tracer
	outstanding atomic.Int64
	wake        chan struct{}
	stop        chan struct{}
	done        chan struct{}
}

func newPump(clk *simclock.Clock, tr *tracer) *pump {
	// wake holds one pending signal: a second submit while one is pending
	// needs no second wake-up.
	return &pump{clk: clk, tr: tr, wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
}

// listen is the daemon's JobListener. It runs under daemon locks, so it only
// counts and signals.
func (p *pump) listen(ev daemon.JobEvent) {
	switch ev.Type {
	case daemon.JobEventSubmitted:
		p.outstanding.Add(1)
		select {
		case p.wake <- struct{}{}:
		default:
		}
	case daemon.JobEventFinished:
		p.outstanding.Add(-1)
	}
}

func (p *pump) run() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case <-p.wake:
		}
		var id int32
		if p.tr != nil {
			id = p.tr.begin(lyPump, 0)
		}
		for p.outstanding.Load() > 0 {
			next, ok := p.clk.NextEventAt()
			if !ok {
				break
			}
			p.clk.RunUntil(next)
		}
		if p.tr != nil {
			p.tr.end(id)
		}
	}
}

func (p *pump) close() {
	close(p.stop)
	<-p.done
}

// spanHeader carries the client's transport span to the handler middleware,
// so a handler span nests under the request that caused it.
const spanHeader = "X-Bench-Span"

// tracedTransport opens an http.transport span around each round trip; its
// self time is the round trip minus the handler span inside it. cur points at
// the owning client's open call span, the transport span's parent; the
// operator makes bare requests and has none.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
	cur  *int32
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.beginUnder(lyTransport, 0, *t.cur)
	// The request is built per call by its only owner, so stamping it in
	// place is safe.
	req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	resp, err := t.base.RoundTrip(req)
	t.tr.end(id)
	return resp, err
}

func handlerLayer(r *http.Request) layer {
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && path == "/api/v1/jobs":
		return lyHTTPPostJobs
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/api/v1/jobs/"):
		if strings.HasSuffix(path, "/result") {
			return lyHTTPGetResult
		}
		return lyHTTPGetJob
	case path == "/metrics":
		return lyHTTPMetrics
	case path == "/admin/v1/status":
		return lyHTTPAdminStatus
	case path == "/api/v1/devices":
		return lyHTTPDevices
	}
	return lyHTTPOther
}

// timedHandler is the timing middleware around daemon.Handler().
func timedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := noSpan
		if n, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = int32(n)
		}
		id := tr.beginUnder(handlerLayer(r), 0, parent)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// oneConn is an HTTP client holding a single keep-alive connection; traced
// runs nest its round trips under the call span *cur names.
func oneConn(tr *tracer, cur *int32) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if tr != nil {
		rt = tracedTransport{rt, tr, cur}
	}
	return &http.Client{Transport: rt}
}

// submitter is one closed-loop SDK caller.
type submitter struct {
	c    *daemon.Client
	tr   *tracer
	cur  int32 // the open call span, noSpan between calls
	menu [][]byte
	next int       // position in the menu
	oper *operator // scrapes beside each burst; nil without one

	attempted, failed int
	submitUS, turnMS  []float64
	wall              time.Duration
}

// op brackets one client call with a span (traced runs) and the failure
// accounting: an error, or a reply slower than slowCall, is a failed op.
func (s *submitter) op(l layer, job int64, call func() error) (time.Duration, bool) {
	if s.tr != nil {
		s.cur = s.tr.begin(l, job)
	}
	start := time.Now()
	err := call()
	took := time.Since(start)
	if s.tr != nil {
		s.tr.end(s.cur)
		s.cur = noSpan
	}
	s.attempted++
	if err != nil || took > slowCall {
		s.failed++
		return took, false
	}
	return took, true
}

// run submits n jobs in bursts: serveBurst TaskStarts, then per job
// TaskStatus until terminal and TaskResult. firstJob numbers the jobs for
// the spans.
func (s *submitter) run(n int, firstJob int64) {
	start := time.Now()
	ids := make([]string, serveBurst)
	sent := make([]time.Time, serveBurst)
	for done := 0; done < n; {
		burst := min(serveBurst, n-done)
		if s.oper != nil {
			s.oper.kick <- struct{}{}
		}
		for k := 0; k < burst; k++ {
			payload := s.menu[s.next%len(s.menu)]
			s.next++
			sent[k] = time.Now()
			took, ok := s.op(lyClientStart, firstJob+int64(done+k), func() (err error) {
				ids[k], err = s.c.TaskStart(payload)
				return err
			})
			if !ok {
				ids[k] = ""
			} else {
				s.submitUS = append(s.submitUS, float64(took.Nanoseconds())/1e3)
			}
		}
		for k := 0; k < burst; k++ {
			if ids[k] == "" {
				continue
			}
			job := firstJob + int64(done+k)
			state := qrmi.StateQueued
			for ok := true; ok && !state.Terminal() && time.Since(sent[k]) <= slowCall; {
				_, ok = s.op(lyClientStatus, job, func() (err error) {
					state, err = s.c.TaskStatus(ids[k])
					return err
				})
				if ok && !state.Terminal() {
					runtime.Gosched()
				}
			}
			if state != qrmi.StateCompleted {
				// No turnaround is recorded; serveRep counts every job
				// without one as failed.
				continue
			}
			_, ok := s.op(lyClientResult, job, func() error {
				res, err := s.c.TaskResult(ids[k])
				if err == nil && !json.Valid(res) {
					err = fmt.Errorf("job %s: result is not JSON", ids[k])
				}
				return err
			})
			if ok {
				s.turnMS = append(s.turnMS, float64(time.Since(sent[k]).Nanoseconds())/1e6)
			}
		}
		if s.oper != nil {
			<-s.oper.idle
		}
		done += burst
	}
	s.wall = time.Since(start)
}

// reset forgets what the warm-up recorded.
func (s *submitter) reset() {
	s.attempted, s.failed, s.submitUS, s.turnMS = 0, 0, s.submitUS[:0], s.turnMS[:0]
}

// operator scrapes the three read endpoints, serveScrapeCycles rounds per
// burst of its submitter: kick starts the rounds as the burst starts, and the
// submitter waits on idle before its next burst.
type operator struct {
	hc      *http.Client
	base    string
	session string
	kick    chan struct{}
	idle    chan struct{}

	attempted, failed int
	scrapeUS          []float64
	wall              time.Duration // kick to idle, summed
}

func (o *operator) run() {
	targets := [3][2]string{
		{"/metrics", ""},
		{"/admin/v1/status", adminToken},
		{"/api/v1/devices", o.session},
	}
	for range o.kick {
		start := time.Now()
		for i := 0; i < serveScrapeCycles*len(targets); i++ {
			t := targets[i%len(targets)]
			req, err := http.NewRequest(http.MethodGet, o.base+t[0], nil)
			if err != nil {
				o.attempted++
				o.failed++
				continue
			}
			if t[1] != "" {
				req.Header.Set("Authorization", "Bearer "+t[1])
			}
			began := time.Now()
			resp, err := o.hc.Do(req)
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s: HTTP %d", t[0], resp.StatusCode)
				}
			}
			took := time.Since(began)
			o.attempted++
			if err != nil || took > slowCall {
				o.failed++
				continue
			}
			o.scrapeUS = append(o.scrapeUS, float64(took.Nanoseconds())/1e3)
		}
		o.wall += time.Since(start)
		o.idle <- struct{}{}
	}
}

func (o *operator) reset() {
	o.attempted, o.failed, o.scrapeUS, o.wall = 0, 0, o.scrapeUS[:0], 0
}

var serveLayers = []layer{lyClientStart, lyClientStatus, lyClientResult, lyHTTPPostJobs, lyHTTPGetJob,
	lyHTTPGetResult, lyHTTPMetrics, lyHTTPAdminStatus, lyHTTPDevices, lyTransport, lyPump, lyJobListener,
	lyAdmit, lyRoutePick}

// serveRep is the child's whole life: assemble, warm up, measure, verify.
func serveRep(w *serveWorkload, seed int64, jobs, warmup int, spansPath string) (*serveRepResult, error) {
	began := time.Now()
	var tr *tracer
	if spansPath != "" {
		tr = newTracer(false, 16*jobs)
		tr.off.Store(true) // until the warm-up is over
	}
	menu, sha, err := buildMenu(seed, w.menu)
	if err != nil {
		return nil, err
	}

	// The node, as cmd/qcsd's newNodeOpts wires it.
	router, err := daemon.NewRouter("least-loaded")
	if err != nil {
		return nil, err
	}
	var admitter admission.Policy = admission.AcceptAll{}
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	tsdb := telemetry.NewTSDB(24*time.Hour, 0)
	fleet, err := device.NewFleet(serveDevices, device.Config{Clock: clk, Seed: seed, Registry: reg, TSDB: tsdb, TimingOnly: true})
	if err != nil {
		return nil, err
	}
	pm := newPump(clk, tr)
	listener := pm.listen
	if tr != nil {
		router = timedRouter{router, tr}
		admitter = wrapAdmission(admitter, tr)
		listener = func(ev daemon.JobEvent) {
			id := tr.begin(lyJobListener, jobNumber(ev.Job.ID))
			pm.listen(ev)
			tr.end(id)
		}
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices: fleet.Devices(), Router: router, Admission: admitter, Clock: clk,
		AdminToken: adminToken, EnablePreemption: true, ProgramCache: 64,
		Registry: reg, TSDB: tsdb, Flight: trace.NewFlightRecorder(trace.DefaultFlightCapacity),
		Seed: seed, JobListener: listener,
	})
	if err != nil {
		return nil, err
	}
	handler := d.Handler()
	if tr != nil {
		handler = timedHandler(handler, tr)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	go pm.run()
	defer pm.close()

	subs := make([]*submitter, w.submitters)
	for i := range subs {
		class := sched.ClassTest
		if i%2 == 1 {
			class = sched.ClassDev
		}
		// Each submitter walks the whole menu, from its own starting point.
		s := &submitter{tr: tr, cur: noSpan, menu: menu, next: i * len(menu) / w.submitters}
		if s.c, err = daemon.NewClient(srv.URL, fmt.Sprintf("user%d", i), class, oneConn(tr, &s.cur)); err != nil {
			return nil, err
		}
		subs[i] = s
	}
	var op *operator
	if w.operator {
		root := noSpan
		hc := oneConn(tr, &root)
		c, err := daemon.NewClient(srv.URL, "operator", sched.ClassDev, hc)
		if err != nil {
			return nil, err
		}
		op = &operator{hc: hc, base: srv.URL, session: c.SessionToken()}
		subs[0].oper = op
	}
	// drive runs every submitter on n/len(subs) jobs (and the operator
	// beside them) and waits for all of them.
	drive := func(n int, firstJob int64) {
		opDone := make(chan struct{})
		if op != nil {
			op.kick, op.idle = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(opDone)
				op.run()
			}()
		} else {
			close(opDone)
		}
		var wg sync.WaitGroup
		for i, s := range subs {
			share := n / len(subs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.run(share, firstJob+int64(i*share))
			}()
		}
		wg.Wait()
		if op != nil {
			close(op.kick)
		}
		<-opDone
	}
	drive(warmup, 1)
	for _, s := range subs {
		s.reset()
	}
	if op != nil {
		op.reset()
	}
	res := &serveRepResult{InputSHA256: sha, Jobs: jobs / len(subs) * len(subs)}
	runtime.GC()
	res.SetupS = time.Since(began).Seconds()
	if tr != nil {
		tr.off.Store(false)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	drive(jobs, int64(warmup)+1)
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	res.GCCycles = after.NumGC - before.NumGC
	res.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.RetainedHeapMB = float64(after.HeapInuse) / (1 << 20)

	var submitUS, turnMS []float64
	var clientWall time.Duration
	for _, s := range subs {
		res.Attempted += s.attempted
		res.Failed += s.failed
		submitUS = append(submitUS, s.submitUS...)
		turnMS = append(turnMS, s.turnMS...)
		clientWall += s.wall
	}
	res.SubmitUS, res.TurnaroundMS = summarize(submitUS), summarize(turnMS)
	if op != nil {
		res.Attempted += op.attempted
		res.Failed += op.failed
		res.ScrapeUS = summarize(op.scrapeUS)
		clientWall += op.wall
	}
	// Every job the clients were answered for must be completed in the
	// daemon's own records, and none may be left over.
	all := d.ListJobs()
	if want := res.Jobs + warmup/len(subs)*len(subs); len(all) != want {
		return nil, fmt.Errorf("correctness gate: daemon holds %d job records, clients submitted %d", len(all), want)
	}
	for _, j := range all {
		if j.State != daemon.JobCompleted {
			res.Failed++
		}
	}
	// A job with no turnaround never reached a fetched result.
	res.Failed += res.Jobs - len(turnMS)

	if tr != nil {
		res.Layers = map[string]float64{}
		addLayerMetrics(res.Layers, tr.aggregate(), serveLayers)
		res.ClientWallS = clientWall.Seconds()
		res.CoveredS = tr.rootCover(lyClientStart, lyClientStatus, lyClientResult, lyTransport).Seconds()
		if err := tr.dump(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serveChildMain is the `serve-rep` subcommand.
func serveChildMain(args []string) error {
	fs := flag.NewFlagSet(serveChild, flag.ContinueOnError)
	name := fs.String("workload", "", "serve workload")
	seed := fs.Int64("seed", 1, "input seed")
	jobs := fs.Int("jobs", 0, "jobs to submit while measuring")
	warmup := fs.Int("warmup", 0, "jobs to submit before measuring")
	spans := fs.String("spans", "", "trace the rep and write its spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findServeWorkload(*name)
	if w == nil || *jobs < w.submitters {
		return fmt.Errorf("%s: need a serve workload and a job count", serveChild)
	}
	res, err := serveRep(w, *seed, *jobs, *warmup, *spans)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// --- the parent ----------------------------------------------------------------

// serveChildRun runs one rep in a child process and returns what it printed
// and its peak resident set.
func (h *harness) serveChildRun(w *serveWorkload, spansPath string) (*serveRepResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	jobs, warmup := w.jobs, serveWarmup
	if h.quick {
		jobs, warmup = jobs/quickScale, warmup/quickScale
	}
	args := []string{serveChild, "--workload", w.name, "--seed", strconv.FormatInt(h.seed, 10),
		"--jobs", strconv.Itoa(jobs), "--warmup", strconv.Itoa(warmup)}
	if spansPath != "" {
		args = append(args, "--spans", spansPath)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", w.name, err)
	}
	var res serveRepResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, 0, fmt.Errorf("%s child output: %w", w.name, err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return &res, float64(ru.Maxrss) / 1024, nil
}

// runServe is the untraced run of a serve workload. Every rep sets up its own
// fresh daemon, so set-up time is the median over the reps.
func (h *harness) runServe(w *serveWorkload) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: h.seed, Seconds: h.seconds.Seconds(), Metrics: map[string]float64{}}
	start := time.Now()
	for h.keepGoing(start, len(res.Reps)) {
		r, rss, err := h.serveChildRun(w, "")
		if err != nil {
			return nil, err
		}
		if len(res.Reps) > 0 && r.InputSHA256 != res.Input.SHA256 {
			return nil, fmt.Errorf("%s: correctness gate: program menu changed between reps", w.name)
		}
		res.Input = inputInfo{SHA256: r.InputSHA256, Jobs: r.Jobs}
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.SetupSeconds = append(res.SetupSeconds, r.SetupS)
		rep := repRecord{
			Metrics: map[string]float64{
				mJobsPerSec:    float64(r.Jobs) / r.WallS,
				mPeakRSS:       rss,
				mTurnaroundP50: r.TurnaroundMS.P50,
				mTurnaroundP99: r.TurnaroundMS.P99,
			},
			Detail: map[string]float64{
				"submit_p50_us": r.SubmitUS.P50, "submit_p99_us": r.SubmitUS.P99,
				"retained_heap_mb": r.RetainedHeapMB,
			},
			Samples: map[string]int{mTurnaroundP50: r.TurnaroundMS.N, mTurnaroundP99: r.TurnaroundMS.N,
				"submit_p50_us": r.SubmitUS.N, "submit_p99_us": r.SubmitUS.N},
		}
		if w.operator {
			rep.Detail["scrape_p50_us"], rep.Detail["scrape_p99_us"] = r.ScrapeUS.P50, r.ScrapeUS.P99
			rep.Samples["scrape_p50_us"], rep.Samples["scrape_p99_us"] = r.ScrapeUS.N, r.ScrapeUS.N
		}
		res.Reps = append(res.Reps, rep)
	}
	res.foldReps()
	res.Correct = res.Failed == 0
	return res, nil
}

// traceServe is the traced run of a serve workload: one untraced rep as the
// reference (client-observed latencies, allocation counts, the base of
// trace.overhead_pct), then one traced rep for the layers.
func (h *harness) traceServe(w *serveWorkload) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: h.seed, Traced: true, Metrics: h.zeroLayerMetrics()}
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return nil, err
	}
	ref, _, err := h.serveChildRun(w, "")
	if err != nil {
		return nil, err
	}
	traced, _, err := h.serveChildRun(w, filepath.Join(h.dir, w.name+"-spans.txt"))
	if err != nil {
		return nil, err
	}
	res.Input = inputInfo{SHA256: ref.InputSHA256, Jobs: ref.Jobs}
	res.Attempted = ref.Attempted + traced.Attempted
	res.Failed = ref.Failed + traced.Failed
	res.Correct = res.Failed == 0
	m := res.Metrics
	for name, v := range traced.Layers {
		m[name] = v
	}
	m["serve.submit_p50_us"], m["serve.submit_p99_us"] = ref.SubmitUS.P50, ref.SubmitUS.P99
	m["serve.scrape_p50_us"], m["serve.scrape_p99_us"] = ref.ScrapeUS.P50, ref.ScrapeUS.P99
	m["serve.retained_heap_mb"] = ref.RetainedHeapMB
	m["go.allocs_per_job"] = float64(ref.Mallocs) / float64(ref.Jobs)
	m["go.alloc_kb_per_job"] = float64(ref.AllocBytes) / 1024 / float64(ref.Jobs)
	m["go.gc_cycles"] = float64(ref.GCCycles)
	m["go.gc_pause_ms"] = ref.GCPauseMS
	m["trace.overhead_pct"] = 100 * (traced.WallS - ref.WallS) / ref.WallS
	setUnattributed(res, time.Duration(traced.ClientWallS*float64(time.Second)), time.Duration(traced.CoveredS*float64(time.Second)))
	h.runProbes(m)
	return res, nil
}
