package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"eagleeye"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
	"eagleeye/internal/server"
)

// serve-mixed: the eagleeyed service in process, on a loopback listener,
// driven open-loop at a fixed session rate over two client connections.
// Runs are short, so set-up (dataset generation, index build, restore
// replay), admission and queueing dominate while the scheduler does almost
// nothing; checkpoint and restore writes sit beside run and get reads.
var serveDatasets = []string{eagleeye.DatasetShips, eagleeye.DatasetAirplanes, "lakes-166k"}

const (
	servePoolSeeds  = 3
	serveSatellites = 2
	serveHours      = 0.25
	// serveFirstStepHours is where a continuous session is checkpointed.
	serveFirstStepHours = 0.1
	// serveRestoreHours is the tiny step that materializes a restored
	// session (the snapshot replay) without simulating further.
	serveRestoreHours = 1e-6
	serveWorkers      = 2
	serveLanes        = 2
	// serveRate is the offered load in sessions/s, below the measured
	// capacity (README.md, "Sizing serve-mixed").
	serveRate = 5.0
	// Every serveContinuousEvery-th session is continuous.
	serveContinuousEvery = 4
	serveSetups          = 5
)

// scenario is one entry of the serve-mixed pool.
type scenario struct {
	Dataset string
	Seed    int64
}

func (s scenario) wire(continuous bool) server.ScenarioConfig {
	return server.ScenarioConfig{Dataset: s.Dataset, Satellites: serveSatellites, DurationHours: serveHours, Seed: s.Seed, Continuous: continuous}
}

// library is the same scenario as the server runs it (one simulator
// worker per run, the server default).
func (s scenario) library(continuous bool) eagleeye.Config {
	return eagleeye.Config{Dataset: s.Dataset, Satellites: serveSatellites, DurationHours: serveHours, Seed: s.Seed, Continuous: continuous, Workers: 1}
}

// plannedSession is one session of the stream.
type plannedSession struct {
	scenario   int // index into the pool
	continuous bool
}

// serveInputs returns the scenario pool and an n-session plan for the
// workload seed. The pool is fixed (each dataset at scenario seeds
// 1..servePoolSeeds): drawing the scenario seeds from the workload seed
// moved the mean session coverage by 18% and the median session time by
// 18% across workload seeds 1-5. The seed orders the plan: it walks the
// pool in blocks, each a seeded permutation of the whole pool, so every
// scenario appears equally often; every serveContinuousEvery-th session is
// continuous.
func serveInputs(seed int64, n int) ([]scenario, []plannedSession) {
	rng := rand.New(rand.NewSource(seed))
	var pool []scenario
	for _, d := range serveDatasets {
		for s := int64(1); s <= servePoolSeeds; s++ {
			pool = append(pool, scenario{Dataset: d, Seed: s})
		}
	}
	plan := make([]plannedSession, 0, n)
	for len(plan) < n {
		for _, k := range rng.Perm(len(pool)) {
			if len(plan) == n {
				break
			}
			plan = append(plan, plannedSession{scenario: k, continuous: len(plan)%serveContinuousEvery == serveContinuousEvery-1})
		}
	}
	return pool, plan
}

// repeatShare is the share of the plan's sessions whose scenario an
// earlier session already used.
func repeatShare(plan []plannedSession) float64 {
	if len(plan) == 0 {
		return 0
	}
	seen := map[int]bool{}
	repeats := 0
	for _, p := range plan {
		if seen[p.scenario] {
			repeats++
		}
		seen[p.scenario] = true
	}
	return float64(repeats) / float64(len(plan))
}

// sameResult compares the deterministic fields of two results, as
// cmd/loadgen -verify does: everything except wall-clock-derived timing
// and solver effort, which can vary when a solve stops on wall time.
func sameResult(a, b *eagleeye.Result) bool {
	if a == nil || b == nil {
		return false
	}
	return a.TotalTargets == b.TotalTargets &&
		a.Frames == b.Frames &&
		a.Detections == b.Detections &&
		a.Captures == b.Captures &&
		a.HighResCaptured == b.HighResCaptured &&
		a.CoveragePct == b.CoveragePct &&
		a.LowResSeenPct == b.LowResSeenPct &&
		a.CrosslinkKB == b.CrosslinkKB &&
		a.DownlinkableFraction == b.DownlinkableFraction &&
		a.LeaderEnergyUtilization == b.LeaderEnergyUtilization &&
		a.FollowerEnergyUtilization == b.FollowerEnergyUtilization
}

// serveRefs are the library results every served session must reproduce.
type serveRefs struct {
	windowed   []*eagleeye.Result
	continuous []*eagleeye.Result
	// Library-level costs of the session layer, one sample per scenario.
	genMS, createMS, checkpointMS, restoreMS, checkpointBytes []float64
}

// references runs every pool scenario through the library, windowed and
// continuous, and walks each continuous one through the same
// step/checkpoint/restore/step path the served sessions take.
func references(pool []scenario, tr *tracer, rep *report) (*serveRefs, error) {
	refs := &serveRefs{}
	for k, sc := range pool {
		key := fmt.Sprintf("ref-%d", k)
		w, err := eagleeye.Run(sc.library(false))
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", sc, err)
		}
		refs.windowed = append(refs.windowed, w)
		full, err := eagleeye.NewSession(sc.library(true))
		if err != nil {
			return nil, err
		}
		c, err := full.Step(eagleeye.StepOptions{})
		full.Close()
		if err != nil {
			return nil, fmt.Errorf("continuous reference %v: %w", sc, err)
		}
		refs.continuous = append(refs.continuous, c)

		t := time.Now()
		id := tr.begin("dataset.gen", 0, key)
		_, err = dataset.ByName(sc.Dataset, sc.Seed)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		refs.genMS = append(refs.genMS, ms(time.Since(t)))

		t = time.Now()
		id = tr.begin("session.new", 0, key)
		sess, err := eagleeye.NewSession(sc.library(true))
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		refs.createMS = append(refs.createMS, ms(time.Since(t)))
		id = tr.begin("session.step", 0, key)
		_, err = sess.Step(eagleeye.StepOptions{Hours: serveFirstStepHours})
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		var ckpt bytes.Buffer
		t = time.Now()
		id = tr.begin("session.checkpoint", 0, key)
		err = sess.Checkpoint(&ckpt)
		tr.finish(id)
		sess.Close()
		if err != nil {
			return nil, err
		}
		refs.checkpointMS = append(refs.checkpointMS, ms(time.Since(t)))
		refs.checkpointBytes = append(refs.checkpointBytes, float64(ckpt.Len()))

		t = time.Now()
		id = tr.begin("session.restore", 0, key)
		restored, err := eagleeye.RestoreSession(&ckpt)
		if err == nil {
			_, err = restored.Step(eagleeye.StepOptions{Hours: serveRestoreHours})
		}
		tr.finish(id)
		if err != nil {
			return nil, fmt.Errorf("restore %v: %w", sc, err)
		}
		refs.restoreMS = append(refs.restoreMS, ms(time.Since(t)))
		id = tr.begin("session.step", 0, key)
		final, err := restored.Step(eagleeye.StepOptions{})
		tr.finish(id)
		restored.Close()
		rep.attempted++
		if err != nil {
			rep.fail("library restore %v: %v", sc, err)
		} else if !sameResult(final, c) {
			rep.fail("library restore %v: result differs from the uninterrupted session", sc)
		}
	}
	return refs, nil
}

// lockedBuffer collects the server's structured log.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runDurations maps request IDs to the server's own run time, read from
// the "run complete" lines of its log.
func runDurations(log string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(log))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec struct {
			Msg   string  `json:"msg"`
			ReqID string  `json:"request_id"`
			DurMS float64 `json:"dur_ms"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "run complete" {
			out[rec.ReqID] = rec.DurMS
		}
	}
	return out
}

// liveServer is an in-process eagleeyed on a loopback port.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	reg    *obs.Registry
	log    *lockedBuffer
	served chan error
}

func startServer() (*liveServer, error) {
	l := &liveServer{reg: obs.NewRegistry(), log: &lockedBuffer{}, served: make(chan error, 1)}
	l.srv = server.New(server.Config{
		Workers: serveWorkers,
		Metrics: l.reg,
		Log:     slog.New(slog.NewJSONHandler(l.log, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = l.srv.Shutdown(time.Second)
		return nil, fmt.Errorf("listen: %w", err)
	}
	l.url = "http://" + ln.Addr().String()
	l.hs = &http.Server{Handler: l.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener and connections, waits for the serve loop,
// then drains the worker pool.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if derr := l.srv.Shutdown(30 * time.Second); err == nil {
		err = derr
	}
	return err
}

// client is one lane's connection: a transport limited to one connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) do(method, path, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sessionRecord is what one served session measured.
type sessionRecord struct {
	ok       bool
	why      string
	createMS float64 // from the session's due time
	runMS    float64 // the run request (windowed sessions)
	runID    string
	durS     float64 // due time to the last response
	coverage float64
	rejects  int
	failed   int // requests answered with an unexpected status
}

// session drives one planned session through the server. Every request is
// timed from its due time (timedCall); spans, when traced, go around each
// HTTP call under one root span per session.
func (sv *serveRig) session(c *client, i int, ps plannedSession, due time.Time, tr *tracer) sessionRecord {
	var rec sessionRecord
	key := fmt.Sprintf("s%d", i)
	root := tr.begin("serve.session", 0, key)
	defer tr.finish(root)
	tc := timedCall{due: due}
	var lat time.Duration // the latest call's latency from its due time
	call := func(route, method, path string, body any, want int, out any) bool {
		var payload []byte
		switch b := body.(type) {
		case nil:
		case []byte:
			payload = b
		default:
			payload, _ = json.Marshal(b) // plain wire structs always marshal
		}
		id := tr.begin("http."+route, root, key)
		status, resp, err := c.do(method, path, key+"-"+route, payload)
		tr.finish(id)
		lat = tc.done()
		switch {
		case err != nil:
			rec.failed++
			rec.why = fmt.Sprintf("%s: %v", route, err)
			return false
		case status != want:
			if status == http.StatusTooManyRequests {
				rec.rejects++
			}
			rec.failed++
			rec.why = fmt.Sprintf("%s: status %d: %s", route, status, strings.TrimSpace(string(resp)))
			return false
		}
		switch o := out.(type) {
		case nil:
		case *[]byte:
			*o = resp
		default:
			if err := json.Unmarshal(resp, o); err != nil {
				rec.failed++
				rec.why = fmt.Sprintf("%s: %v", route, err)
				return false
			}
		}
		return true
	}
	sc := sv.pool[ps.scenario]
	var info server.SessionInfo
	ok := call("create", "POST", "/v1/sessions", sc.wire(ps.continuous), http.StatusCreated, &info)
	rec.createMS = ms(lat)
	if !ok {
		return rec
	}
	var final *eagleeye.Result
	var want *eagleeye.Result
	if ps.continuous {
		want = sv.refs.continuous[ps.scenario]
		var ckpt []byte
		var restored server.SessionInfo
		var run server.RunResponse
		ok = call("step", "POST", "/v1/sessions/"+info.ID+"/step", server.StepRequest{Hours: serveFirstStepHours}, http.StatusOK, nil) &&
			call("checkpoint", "POST", "/v1/sessions/"+info.ID+"/checkpoint", nil, http.StatusOK, &ckpt) &&
			call("restore", "POST", "/v1/sessions/restore", ckpt, http.StatusCreated, &restored) &&
			call("step", "POST", "/v1/sessions/"+restored.ID+"/step", server.StepRequest{}, http.StatusOK, &run) &&
			call("delete", "DELETE", "/v1/sessions/"+info.ID, nil, http.StatusNoContent, nil) &&
			call("delete", "DELETE", "/v1/sessions/"+restored.ID, nil, http.StatusNoContent, nil)
		final = run.Result
		if ok && !sameResult(final, want) {
			ok, rec.why = false, "restored session differs from the uninterrupted one"
		}
	} else {
		want = sv.refs.windowed[ps.scenario]
		var run server.RunResponse
		var got server.SessionInfo
		ok = call("run", "POST", "/v1/sessions/"+info.ID+"/run", nil, http.StatusOK, &run)
		rec.runMS, rec.runID = ms(lat), key+"-run"
		ok = ok &&
			call("get", "GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &got) &&
			call("delete", "DELETE", "/v1/sessions/"+info.ID, nil, http.StatusNoContent, nil)
		final = run.Result
		switch {
		case !ok:
		case !sameResult(final, want):
			ok, rec.why = false, "run result differs from the library"
		case !sameResult(got.LastResult, want):
			ok, rec.why = false, "queried result differs from the library"
		}
	}
	rec.durS = time.Since(due).Seconds()
	rec.ok = ok
	if ok {
		rec.coverage = final.CoveragePct
	}
	return rec
}

// serveRig is one serve-mixed run's inputs, references and server.
type serveRig struct {
	pool []scenario
	refs *serveRefs
	live *liveServer
	lane []*client
}

// streamResult is one open-loop stream's measurements.
type streamResult struct {
	recs    []sessionRecord
	late    []time.Duration
	elapsed time.Duration // stream start to the last session's end
	allocs  uint64
	cpuS    float64
}

// stream offers plan to the server open-loop at rate sessions/s.
func (sv *serveRig) stream(plan []plannedSession, rate float64, tr *tracer) streamResult {
	var st streamResult
	st.recs = make([]sessionRecord, len(plan))
	interval := time.Duration(float64(time.Second) / rate)
	a0, c0 := allocBytes(), cpuSeconds()
	start := time.Now()
	st.late = openLoop(start, len(plan), len(sv.lane), interval, func(lane, i int, due time.Time) {
		st.recs[i] = sv.session(sv.lane[lane], i, plan[i], due, tr)
	})
	st.elapsed = time.Since(start)
	st.allocs = allocBytes() - a0
	st.cpuS = cpuSeconds() - c0
	return st
}

// summary folds a stream into the served-session metrics.
type serveSummary struct {
	completed           int
	durS, runMS, create []float64
	coverage            []float64
	tailPct, tailMS     float64
	tailOK              bool
	sessionsPerS        float64
	lateMaxMS           float64
}

func summarize(st streamResult) serveSummary {
	var s serveSummary
	for _, r := range st.recs {
		if !r.ok {
			continue
		}
		s.completed++
		s.durS = append(s.durS, r.durS)
		s.create = append(s.create, r.createMS)
		s.coverage = append(s.coverage, r.coverage)
		if r.runID != "" {
			s.runMS = append(s.runMS, r.runMS)
		}
	}
	s.tailPct, s.tailMS, s.tailOK = tail(s.runMS)
	s.sessionsPerS = float64(s.completed) / st.elapsed.Seconds()
	for _, l := range st.late {
		s.lateMaxMS = math.Max(s.lateMaxMS, ms(l))
	}
	return s
}

func serveRateOf(o options) float64 {
	if o.rate > 0 {
		return o.rate
	}
	return serveRate
}

// serveSessions is the stream's length: the sessions due within the
// measured time, or, traced, within half of it, because a traced run
// offers the same sessions twice (untraced, then traced) so the overhead
// compares like with like.
func serveSessions(o options) int {
	n := int(serveRateOf(o) * o.seconds.Seconds())
	if o.trace {
		n /= 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

func runServeMixed(o options) (*report, error) {
	rep := newReport()
	rate := serveRateOf(o)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pool, plan := serveInputs(o.seed, serveSessions(o))
	refs, err := references(pool, tr, rep)
	if err != nil {
		return nil, err
	}
	sv := &serveRig{pool: pool, refs: refs}

	// Set-up, several times: start the server and serve one warm-up
	// session per dataset. The last server stays up for the stream.
	var setupS, setupWallS []float64
	for i := 0; i < serveSetups; i++ {
		if sv.live != nil {
			if err := sv.live.stop(); err != nil {
				return nil, err
			}
		}
		cpuS, wallS, err := timeSetup(func() error {
			var err error
			if sv.live, err = startServer(); err != nil {
				return err
			}
			c := newClient(sv.live.url)
			for d := range serveDatasets {
				rec := sv.session(c, -1-d, plannedSession{scenario: d * servePoolSeeds}, time.Now(), nil)
				rep.attempted++
				if !rec.ok {
					rep.fail("warm-up session %s: %s", serveDatasets[d], rec.why)
				}
			}
			c.hc.CloseIdleConnections()
			return nil
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, cpuS)
		setupWallS = append(setupWallS, wallS)
	}
	defer func() {
		if err := sv.live.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "eebench: server shutdown:", err)
		}
	}()
	for l := 0; l < serveLanes; l++ {
		c := newClient(sv.live.url)
		defer c.hc.CloseIdleConnections()
		sv.lane = append(sv.lane, c)
	}

	untraced := sv.stream(plan, rate, nil)
	count := func(st streamResult) {
		for i, r := range st.recs {
			rep.attempted++
			if !r.ok {
				rep.fail("session %d: %s", i, r.why)
			}
		}
	}
	count(untraced)
	s := summarize(untraced)
	if s.completed == 0 {
		return nil, fmt.Errorf("serve-mixed: no session completed")
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["cpu_s"] = untraced.cpuS / float64(len(plan))
	rep.e2e["coverage_pct"] = mean(s.coverage)
	rep.e2e["alloc_mb"] = float64(untraced.allocs) / float64(len(plan)) / 1e6
	rep.detail["setup_wall_s"] = median(setupWallS)
	rep.detail["offered_rate_per_s"] = rate
	rep.detail["session_mean_s"] = mean(s.durS)
	rep.detail["sessions"] = len(plan)
	rep.detail["pool"] = pool
	rep.detail["repeat_share"] = repeatShare(plan)
	rep.detail["run_samples"] = len(s.runMS)
	rep.detail["run_p50_ms"] = median(s.runMS)
	if s.tailOK {
		rep.detail["run_tail"] = map[string]any{"percentile": s.tailPct, "ms": s.tailMS, "samples_beyond": len(s.runMS) - rankOf(len(s.runMS), s.tailPct)}
	} else {
		rep.detail["run_tail"] = "too few samples"
	}
	rep.detail["create_p50_ms"] = median(s.create)
	rep.detail["sessions_per_s"] = s.sessionsPerS
	rep.detail["generator_late_max_ms"] = s.lateMaxMS

	if !o.trace {
		return rep, nil
	}
	before := registryCounters(sv.live.reg)
	logStart := len(sv.live.log.String())
	traced := sv.stream(plan, rate, tr)
	count(traced)
	after := registryCounters(sv.live.reg)
	sessions := float64(len(plan))
	addCounters(rep.layer, subCounters(after, before), 1/sessions)
	finishRatios(rep.layer)

	// Server-side run time, joined to client latency by request ID.
	runs := runDurations(sv.live.log.String()[logStart:])
	var runMS, waitMS []float64
	waitSum, latSum := 0.0, 0.0
	for _, r := range traced.recs {
		d, ok := runs[r.runID]
		if !r.ok || r.runID == "" || !ok {
			continue
		}
		runMS = append(runMS, d)
		waitMS = append(waitMS, r.runMS-d)
		waitSum += r.runMS - d
		latSum += r.runMS
	}
	rep.layer["server.run_ms"] = median(runMS)
	rep.layer["server.queue_wait_ms"] = median(waitMS)
	if latSum > 0 {
		rep.layer["server.queue_wait_share"] = waitSum / latSum
	}
	for _, r := range append(untraced.recs, traced.recs...) {
		rep.layer["server.rejects_429"] += float64(r.rejects)
		rep.layer["server.requests_failed"] += float64(r.failed)
	}
	// The served-session latencies come from the untraced stream.
	rep.layer["server.run_p50_ms"] = median(s.runMS)
	rep.layer["server.run_tail_ms"] = s.tailMS
	rep.layer["server.create_p50_ms"] = median(s.create)
	rep.layer["server.sessions_per_s"] = s.sessionsPerS
	rep.layer["server.repeat_share"] = repeatShare(append(append([]plannedSession(nil), plan...), plan...))
	rep.layer["dataset.gen_ms"] = median(refs.genMS)
	rep.layer["session.create_ms"] = median(refs.createMS)
	rep.layer["session.checkpoint_ms"] = median(refs.checkpointMS)
	rep.layer["session.restore_ms"] = median(refs.restoreMS)
	rep.layer["session.checkpoint_bytes"] = median(refs.checkpointBytes)
	rep.spans = tr.snapshot()
	self := layerSelf(rep.spans)
	rep.layer["http.self_s"] = self["http"] / sessions
	rep.layer["obs.trace_overhead_pct"] = overheadPct(s.durS, summarize(traced).durS)
	return rep, nil
}
