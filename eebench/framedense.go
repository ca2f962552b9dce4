package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"eagleeye/internal/adacs"
	"eagleeye/internal/cluster"
	"eagleeye/internal/core"
	"eagleeye/internal/detect"
	"eagleeye/internal/geo"
	"eagleeye/internal/mip"
	"eagleeye/internal/obs"
	"eagleeye/internal/sched"
)

// frame-dense: a fixed set of single dense frames through
// core.ShardedPipeline, built as cmd/benchsim builds it. The densities sit
// on both sides of the 4096-target shard crossover, so the set reaches the
// sparse LP engine, partial pricing, the grid cover, and shard planning and
// stitching, none of which sim-ships touches.
var denseClasses = []struct {
	targets int
	name    string
}{{1000, "1k"}, {5000, "5k"}, {20000, "20k"}, {100000, "100k"}}

const (
	denseFollowers = 2
	denseWorkers   = 2
	denseSwathM    = 10e3
	// Node budgets are the simulator's (sched 200, cluster 40), so every
	// solve does a fixed amount of work. The wall-clock limit is only a
	// watchdog, far above the slowest frame's solves.
	denseSchedNodes   = 200
	denseClusterNodes = 40
	denseWatchdog     = time.Minute
)

// denseFrame is one input frame and the detector seed it is processed with.
type denseFrame struct {
	class int // index into denseClasses
	frame core.Frame
	seed  int64
}

// denseInputs returns the warm-up frame and the frame set. The set is
// fixed and the workload seed does not change it. A frame's solve cost
// moves by ±40% with any change to its targets or detector seed, and the
// order frames reach the pipeline's persistent per-shard warm-start state
// changes their schedules: a seeded order moved the set's coverage by 14%
// and its time by 20% across seeds 1-5 (README.md).
func denseInputs() (warm denseFrame, frames []denseFrame) {
	bounds := geo.NewRectCentered(geo.Point2{}, 100e3, 100e3)
	for ci, c := range denseClasses {
		frames = append(frames, denseFrame{
			class: ci,
			frame: core.Frame{Truth: frameTruth(c.targets, int64(60+ci)), Bounds: bounds, GSDM: 30},
			seed:  int64(ci + 1),
		})
	}
	last := len(denseClasses) - 1
	warm = denseFrame{
		class: last,
		frame: core.Frame{Truth: frameTruth(denseClasses[last].targets, 59), Bounds: bounds, GSDM: 30},
		seed:  1000,
	}
	return warm, frames
}

// frameTruth scatters n targets uniformly over the 100 km frame, in
// frame-local meters (the cmd/benchsim frame generator).
func frameTruth(n int, seed int64) []geo.Point2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point2, n)
	for i := range pts {
		pts[i] = geo.Point2{X: (rng.Float64() - 0.5) * 100e3, Y: (rng.Float64() - 0.5) * 100e3}
	}
	return pts
}

func denseFollowerStates() ([]sched.Follower, sched.Env) {
	fols := make([]sched.Follower, denseFollowers)
	for i := range fols {
		p := geo.Point2{Y: -100e3 - 15e3*float64(i)}
		fols[i] = sched.Follower{SubPoint: p, Boresight: p}
	}
	return fols, sched.Env{AltitudeM: 475e3, GroundSpeedMS: 7300, MaxOffNadirDeg: 11, Slew: adacs.PaperSlew()}
}

// denseRig processes frame sets. delay is added inside every Schedule call
// by the scheduler wrapper; only the attribution self-test sets it.
type denseRig struct {
	warm   denseFrame
	frames []denseFrame
	fols   []sched.Follower
	env    sched.Env
	delay  time.Duration
}

// passResult is one pass over the frame set on a fresh pipeline.
type passResult struct {
	// setupS and setupWallS are the CPU and host seconds of pipeline
	// construction plus the warm-up frame.
	setupS, setupWallS float64
	total              time.Duration // the whole set, warm-up excluded
	frameS             []float64     // per frame, in processing order
	results            []core.Result
	stats              []core.ShardFrameStats
	spans              []span
	// counters holds the registry series the set moved, warm-up excluded
	// (traced passes only).
	counters map[string]float64
}

// timedScheduler wraps one shard's scheduler from outside the program: a
// span around every Schedule call, under the frame span that caused it.
type timedScheduler struct {
	inner sched.Scheduler
	tr    *tracer
	frame *atomic.Int64 // the current frame's span ID
	delay time.Duration
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Schedule(p *sched.Problem) (sched.Schedule, error) {
	id := t.tr.begin("sched.schedule", int(t.frame.Load()), "")
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	s, err := t.inner.Schedule(p)
	t.tr.finish(id)
	return s, err
}

// pipeline builds the benchmark's sharded pipeline. A traced pipeline
// feeds the solver counters into reg and measures its own stage walls.
func (d *denseRig) pipeline(tr *tracer, reg *obs.Registry, frame *atomic.Int64) *core.ShardedPipeline {
	copts := mip.Options{TimeLimit: denseWatchdog, MaxNodes: denseClusterNodes}
	sopts := mip.Options{TimeLimit: denseWatchdog, MaxNodes: denseSchedNodes}
	if reg != nil {
		copts.Metrics = obs.NewSolverMetrics(reg, "cluster")
		sopts.Metrics = obs.NewSolverMetrics(reg, "sched")
	}
	return &core.ShardedPipeline{
		Template: core.Pipeline{
			Detector:      detect.YoloN(),
			Tiling:        detect.PaperTiling(),
			UseClustering: true,
			ClusterOpts:   cluster.Options{MaxCoverPoints: 256, MaxILPCandidates: 400, MIP: copts},
			HighResSwathM: denseSwathM,
			Timed:         reg != nil,
		},
		NewScheduler: func() sched.Scheduler {
			return &timedScheduler{
				inner: sched.ILP{State: sched.NewSolverState(), MIP: sopts},
				tr:    tr, frame: frame, delay: d.delay,
			}
		},
		NewClusterState: cluster.NewSolverState,
		Parallel:        parallel(denseWorkers),
	}
}

// parallel is the pipeline's executor hook: fn(0..n-1) on up to w
// goroutines, returning once all calls have.
func parallel(w int) func(n int, fn func(int)) {
	return func(n int, fn func(int)) {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for g := 0; g < w && g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
}

// pass runs the frame set once on a fresh pipeline, so every pass starts
// from the same solver state and does the same work. A non-nil tracer
// makes it a traced pass: spans go to tr and solver counters to a fresh
// registry.
func (d *denseRig) pass(tr *tracer) (passResult, error) {
	var p passResult
	var reg *obs.Registry
	first := tr.count()
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var cur atomic.Int64
	var sp *core.ShardedPipeline
	var err error
	p.setupS, p.setupWallS, err = timeSetup(func() error {
		sp = d.pipeline(tr, reg, &cur)
		warm := tr.begin("core.warmup", 0, "")
		cur.Store(int64(warm))
		_, _, err := sp.ProcessFrame(d.warm.frame, d.fols, d.env, d.warm.seed)
		tr.finish(warm)
		return err
	})
	defer sp.Close()
	if err != nil {
		return p, fmt.Errorf("warm-up frame: %w", err)
	}
	var before map[string]float64
	if reg != nil {
		before = registryCounters(reg)
	}

	root := tr.begin("core.pass", 0, "")
	t1 := time.Now()
	for i, f := range d.frames {
		id := tr.begin("core.frame", root, fmt.Sprintf("frame-%d", i))
		cur.Store(int64(id))
		t := time.Now()
		res, st, err := sp.ProcessFrame(f.frame, d.fols, d.env, f.seed)
		p.frameS = append(p.frameS, time.Since(t).Seconds())
		tr.finish(id)
		if err != nil {
			return p, fmt.Errorf("frame %d: %w", i, err)
		}
		p.results = append(p.results, res)
		p.stats = append(p.stats, st)
	}
	p.total = time.Since(t1)
	tr.finish(root)
	p.spans = tr.snapshot()[first:]
	if reg != nil {
		p.counters = subCounters(registryCounters(reg), before)
	}
	return p, nil
}

// validateFrame applies the simulator's self-checks to one frame: the
// cover must assign every detection to exactly one box that contains it,
// and the schedule, checked against the problem rebuilt from the result,
// must satisfy C1-C3.
func (d *denseRig) validateFrame(res *core.Result) error {
	pts := make([]geo.Point2, len(res.Detections))
	for i, det := range res.Detections {
		pts[i] = det.Pos
	}
	if err := cluster.Validate(pts, res.Clusters); err != nil {
		return fmt.Errorf("cover: %w", err)
	}
	targets := make([]sched.Target, len(res.Clusters))
	for i, c := range res.Clusters {
		val := 0.0
		for _, m := range c.Members {
			val += res.Detections[m].Confidence
		}
		targets[i] = sched.Target{ID: i, Pos: c.Center(), Value: val}
	}
	prob := &sched.Problem{Env: d.env, Targets: targets, Followers: d.fols}
	if err := sched.ValidateSchedule(prob, &res.Schedule); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	return nil
}

// sameSchedule reports whether two frames scheduled the same captures in
// the same order with bit-identical times, aims and value.
func sameSchedule(a, b *core.Result) bool {
	return math.Float64bits(a.Schedule.Value) == math.Float64bits(b.Schedule.Value) &&
		reflect.DeepEqual(a.Schedule.Captures, b.Schedule.Captures)
}

// coveragePct is the share of the set's true targets that lie inside a
// captured high-resolution footprint.
func coveragePct(frames []denseFrame, results []core.Result) float64 {
	covered, total := 0, 0
	for i, f := range frames {
		fps := results[i].CaptureFootprints(denseSwathM)
		for _, p := range f.frame.Truth {
			for _, r := range fps {
				if r.Contains(p) {
					covered++
					break
				}
			}
		}
		total += len(f.frame.Truth)
	}
	return 100 * float64(covered) / float64(total)
}

func runFrameDense(o options) (*report, error) {
	rep := newReport()
	rig := &denseRig{}
	rig.warm, rig.frames = denseInputs()
	rig.fols, rig.env = denseFollowerStates()

	// The reference pass: results every later pass must reproduce bit for
	// bit. It is not part of setup_s.
	ref, err := rig.pass(nil)
	if err != nil {
		return nil, err
	}
	for i := range ref.results {
		rep.attempted++
		if err := rig.validateFrame(&ref.results[i]); err != nil {
			rep.fail("reference frame %d: %v", i, err)
		}
	}

	var setupS, setupWallS, passS, tracedS, cpuS []float64
	frameS := make([][]float64, len(rig.frames)) // per frame, over passes
	var allocs uint64
	var traced []passResult
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	err = measureLoop(o.seconds, minCalls(o.trace), func(i int) error {
		tracedPass := o.trace && i%2 == 1
		var ptr *tracer
		if tracedPass {
			ptr = tr
		}
		a0, c0 := allocBytes(), cpuSeconds()
		p, err := rig.pass(ptr)
		if err != nil {
			return err
		}
		a1, c1 := allocBytes(), cpuSeconds()
		for k := range p.results {
			rep.attempted++
			if err := rig.validateFrame(&p.results[k]); err != nil {
				rep.fail("pass %d frame %d: %v", i, k, err)
			} else if !sameSchedule(&p.results[k], &ref.results[k]) {
				rep.fail("pass %d frame %d: schedule differs from the reference", i, k)
			}
		}
		setupS = append(setupS, p.setupS)
		setupWallS = append(setupWallS, p.setupWallS)
		if tracedPass {
			tracedS = append(tracedS, p.total.Seconds())
			traced = append(traced, p)
			return nil
		}
		allocs += a1 - a0
		cpuS = append(cpuS, c1-c0)
		passS = append(passS, p.total.Seconds())
		for k, d := range p.frameS {
			frameS[k] = append(frameS[k], d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	captures := 0
	for i := range ref.results {
		captures += ref.results[i].Schedule.NumCaptures()
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["cpu_s"] = median(cpuS)
	rep.e2e["coverage_pct"] = coveragePct(rig.frames, ref.results)
	rep.e2e["alloc_mb"] = float64(allocs) / float64(len(passS)) / 1e6
	// The median frame of the set, each frame taken at its median over the
	// passes. Pooling every sample instead would put the median between
	// the slowest fast frame and the fastest slow one, two noise extremes.
	frameMedians := make([]float64, len(frameS))
	for k, xs := range frameS {
		frameMedians[k] = median(xs)
	}
	rep.detail["frame_p50_ms"] = 1000 * median(frameMedians)
	rep.detail["setup_wall_s"] = median(setupWallS)
	rep.detail["frames_per_pass"] = len(rig.frames)
	rep.detail["passes"] = len(passS)
	rep.detail["frame_set_s"] = median(passS)
	rep.detail["pass_s"] = passS
	rep.detail["frame_s"] = frameS
	rep.detail["frame_p50_samples"] = len(rig.frames) * len(passS)
	rep.detail["frame_captures"] = captures
	if o.trace {
		for _, p := range traced {
			addCounters(rep.layer, denseLayers(p), 1/float64(len(traced)))
		}
		rep.spans = tr.snapshot()
		finishRatios(rep.layer)
		for ci, c := range denseClasses {
			var xs []float64
			for _, p := range traced {
				for k, f := range rig.frames {
					if f.class == ci {
						xs = append(xs, 1000*p.frameS[k])
					}
				}
			}
			rep.layer["core.frame_ms_"+c.name] = median(xs)
		}
		rep.layer["core.frame_captures"] = float64(captures)
		rep.layer["core.frame_set_s"] = median(passS)
		rep.layer["obs.trace_overhead_pct"] = overheadPct(passS, tracedS)
		rep.detail["traced_passes"] = len(traced)
	}
	return rep, nil
}

// denseLayers is one traced pass's per-layer breakdown.
func denseLayers(p passResult) map[string]float64 {
	// A bare pipeline feeds only the solver series; the simulator-level
	// ones (stages, frames, fallbacks) stay 0 and fallbacks come from the
	// shard stats instead.
	m := map[string]float64{}
	addCounters(m, p.counters, 1)
	imbalance := 0.0
	for i, st := range p.stats {
		m["core.shards"] += float64(st.Shards)
		m["core.dropped_captures"] += float64(st.DroppedCaptures)
		m["sched.fallbacks"] += float64(st.SchedFallbacks)
		if st.Imbalance() > imbalance {
			imbalance = st.Imbalance()
		}
		res := &p.results[i]
		m["cluster.self_s"] += res.ClusterWall.Seconds()
		if res.ClusterMethod == cluster.MethodGrid {
			m["cluster.grid_covers"]++
		}
	}
	m["core.imbalance"] = imbalance

	// Scheduler calls, grouped by the frame that made them: the slowest
	// shard is the frame's critical path, the sum its total solver time.
	// The warm-up frame's calls are set-up and stay out of the breakdown.
	self := selfTimes(p.spans)
	byFrame := map[int][]float64{}
	var calls []float64
	for _, s := range p.spans {
		if s.Name == "core.frame" {
			byFrame[s.ID] = nil
			m["core.self_s"] += self[s.ID]
		}
	}
	for _, s := range p.spans {
		if _, ok := byFrame[s.Parent]; ok && s.Name == "sched.schedule" {
			byFrame[s.Parent] = append(byFrame[s.Parent], 1000*s.dur())
			calls = append(calls, 1000*s.dur())
			m["sched.self_s"] += self[s.ID]
		}
	}
	for _, xs := range byFrame {
		m["core.sched_shard_max_ms"] += maxOf(xs)
		m["core.sched_shard_sum_ms"] += sum(xs)
	}
	m["sched.call_ms"] = median(calls)
	return m
}
