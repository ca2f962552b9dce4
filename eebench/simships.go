package main

import (
	"fmt"
	"runtime"
	"time"

	"eagleeye"
	"eagleeye/internal/constellation"
	"eagleeye/internal/dataset"
	"eagleeye/internal/obs"
	"eagleeye/internal/sim"
)

// sim-ships: one library call, eagleeye.Run, over the paper-scale ships
// scenario. Frames hold at most ~100 targets, so the scheduler's
// branch-and-bound over the dense LP core does nearly all the work; the
// server, dataset and sharding layers are idle.
const (
	shipsSatellites = 8
	shipsHours      = 6
	shipsWorkers    = 2
	// shipsScenarioSeed fixes the scenario. The workload seed does not
	// change it: across scenario seeds 1-8 a run's cost varies by a third
	// (a handful of wall-clock-truncated solves dominate it), which would
	// swamp any regression bound. README.md gives the measurement.
	shipsScenarioSeed = 1
	shipsSetups       = 60
)

func shipsConfig() eagleeye.Config {
	return eagleeye.Config{
		Dataset:       eagleeye.DatasetShips,
		Satellites:    shipsSatellites,
		DurationHours: shipsHours,
		Seed:          shipsScenarioSeed,
		Workers:       shipsWorkers,
	}
}

// shipsSimConfig is shipsConfig in the simulator's own terms, for the calls
// the facade does not expose: runner construction and the schedule
// validation of the traced pass.
func shipsSimConfig(app *dataset.Set) sim.Config {
	return sim.Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: shipsSatellites},
		App:           app,
		DurationS:     shipsHours * 3600,
		Seed:          shipsScenarioSeed,
		Workers:       shipsWorkers,
	}
}

func runSimShips(o options) (*report, error) {
	rep := newReport()
	cfg := shipsConfig()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, several times, first, as a fresh process meets it: scenario
	// validation with dataset generation (eagleeye.NewSession) plus runner
	// construction over the generated dataset (sim.NewRunner). setup_s is
	// their CPU time; the dataset generation between them only measures
	// dataset.gen_ms and feeds the runner.
	var setupS, setupWallS, genMS, createMS []float64
	for i := 0; i < shipsSetups; i++ {
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		id := tr.begin("session.new", 0, fmt.Sprintf("setup-%d", i))
		sess, err := eagleeye.NewSession(cfg)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		c1, t1 := cpuSeconds(), time.Now()
		id = tr.begin("dataset.gen", 0, fmt.Sprintf("setup-%d", i))
		app, err := dataset.ByName(cfg.Dataset, cfg.Seed)
		tr.finish(id)
		if err != nil {
			return nil, err
		}
		c2, t2 := cpuSeconds(), time.Now()
		runner, err := sim.NewRunner(shipsSimConfig(app))
		if err != nil {
			return nil, err
		}
		c3, t3 := cpuSeconds(), time.Now()
		runner.Close()
		sess.Close()
		setupS = append(setupS, (c1-c0)+(c3-c2))
		setupWallS = append(setupWallS, (t1.Sub(t0) + t3.Sub(t2)).Seconds())
		createMS = append(createMS, ms(t1.Sub(t0)))
		genMS = append(genMS, ms(t2.Sub(t1)))
	}

	// The reference: the same scenario on one worker. Then one untimed run
	// as measured, so the first measured run does not fill the solver
	// pools for the second worker. Neither is part of setup_s.
	refCfg := cfg
	refCfg.Workers = 1
	ref, err := eagleeye.Run(refCfg)
	if err != nil {
		return nil, fmt.Errorf("sim-ships reference: %w", err)
	}
	if _, err := eagleeye.Run(cfg); err != nil {
		return nil, fmt.Errorf("sim-ships warm-up: %w", err)
	}

	// The traced pass checks constraints C1-C3 on every schedule of one
	// run of the identical scenario.
	if o.trace {
		app, err := dataset.ByName(cfg.Dataset, cfg.Seed)
		if err != nil {
			return nil, err
		}
		vcfg := shipsSimConfig(app)
		vcfg.ValidateSchedules = true
		rep.attempted++
		vres, err := sim.Run(vcfg)
		switch {
		case err != nil:
			rep.fail("validated run: %v", err)
		case vres.Frames != ref.Frames || vres.Detections != ref.Detections:
			rep.fail("validated run: frames %d detections %d, reference %d %d", vres.Frames, vres.Detections, ref.Frames, ref.Detections)
		}
	}

	var runS, tracedS, coverage, cpuS, allocMB []float64
	drift := 0
	layers := map[string]float64{}
	traced := 0
	check := func(r *eagleeye.Result) {
		if r.Frames != ref.Frames || r.Detections != ref.Detections {
			rep.fail("frames %d detections %d, reference %d %d", r.Frames, r.Detections, ref.Frames, ref.Detections)
		}
		if r.Captures != ref.Captures || r.HighResCaptured != ref.HighResCaptured || r.CoveragePct != ref.CoveragePct {
			drift++
		}
	}
	err = measureLoop(o.seconds, minCalls(o.trace), func(i int) error {
		c := cfg
		var reg *obs.Registry
		if o.trace && i%2 == 1 {
			reg = obs.NewRegistry()
			c.Metrics = reg
		}
		a0, c0 := allocBytes(), cpuSeconds()
		t := time.Now()
		var id int
		if reg != nil {
			id = tr.begin("sim.run", 0, fmt.Sprintf("run-%d", i))
		}
		r, err := eagleeye.Run(c)
		tr.finish(id)
		d := time.Since(t).Seconds()
		rep.attempted++
		if err != nil {
			rep.fail("run %d: %v", i, err)
			return nil
		}
		check(r)
		if reg != nil {
			tracedS = append(tracedS, d)
			addCounters(layers, registryCounters(reg), 1)
			traced++
			return nil
		}
		allocMB = append(allocMB, float64(allocBytes()-a0)/1e6)
		cpuS = append(cpuS, cpuSeconds()-c0)
		runS = append(runS, d)
		coverage = append(coverage, r.CoveragePct)
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["cpu_s"] = median(cpuS)
	rep.e2e["coverage_pct"] = median(coverage)
	// The least, not the median: a run allocates a fixed amount unless a
	// garbage collection emptied the solver-state pools since the last
	// run, and then 6-16 MB more to refill them, depending on when the
	// collector ran. The floor is the run's own allocation.
	rep.e2e["alloc_mb"] = minOf(allocMB)
	rep.detail["setup_s"] = setupS
	rep.detail["setup_wall_s"] = median(setupWallS)
	rep.detail["runs"] = len(runS)
	rep.detail["sim_run_s"] = median(runS)
	rep.detail["run_s"] = runS
	rep.detail["alloc_mb"] = allocMB
	rep.detail["traced_runs"] = traced
	rep.detail["result_drift_runs"] = drift
	rep.detail["reference"] = map[string]any{
		"workers": 1, "frames": ref.Frames, "detections": ref.Detections,
		"captures": ref.Captures, "coverage_pct": ref.CoveragePct,
	}
	if o.trace {
		addCounters(rep.layer, layers, 1/float64(traced))
		finishRatios(rep.layer)
		rep.spans = tr.snapshot()
		self := layerSelf(rep.spans)
		rep.layer["sim.self_s"] = self["sim"] / float64(traced)
		rep.layer["sim.result_drift"] = float64(drift)
		rep.layer["sim.run_s"] = median(runS)
		rep.layer["dataset.gen_ms"] = median(genMS)
		rep.layer["session.create_ms"] = median(createMS)
		rep.layer["obs.trace_overhead_pct"] = overheadPct(runS, tracedS)
	}
	return rep, nil
}
