package main

import "eagleeye/internal/obs"

// registryCounters reads the series the program exports through an
// obs.Registry into the per-layer metric names. sched.warm_accepted is an
// intermediate: finishRatios turns it into sched.warm_hit_ratio.
func registryCounters(reg *obs.Registry) map[string]float64 {
	c := func(name string, labels ...obs.Label) float64 { return float64(reg.CounterValue(name, labels...)) }
	solver := func(s string) obs.Label { return obs.Label{Key: "solver", Value: s} }
	sched := solver("sched")
	m := map[string]float64{
		"sched.solves":         c("eagleeye_mip_solves_total", sched),
		"sched.nodes":          c("eagleeye_mip_nodes_total", sched),
		"sched.lp_iters":       c("eagleeye_mip_lp_iters_total", sched),
		"sched.truncated":      c("eagleeye_mip_truncated_total", sched),
		"sched.pivot_s":        c("eagleeye_mip_pivot_nanoseconds_total", sched) / 1e9,
		"sched.warm_attempts":  c("eagleeye_warmstart_attempts_total", sched),
		"sched.warm_accepted":  c("eagleeye_warmstart_accepted_total", sched),
		"sched.fallbacks":      c("eagleeye_sched_fallbacks_total"),
		"cluster.solves":       c("eagleeye_mip_solves_total", solver("cluster")),
		"cluster.nodes":        c("eagleeye_mip_nodes_total", solver("cluster")),
		"cluster.lp_iters":     c("eagleeye_mip_lp_iters_total", solver("cluster")),
		"sim.frames":           c("eagleeye_frames_total"),
		"sim.missed_deadlines": c("eagleeye_missed_deadlines_total"),
	}
	// The LP engine counters sum over both solver consumers.
	for _, s := range []string{"sched", "cluster"} {
		l := solver(s)
		m["lp.dense_solves"] += c("eagleeye_lp_core_solves_total", l, obs.Label{Key: "core", Value: "dense"})
		m["lp.sparse_solves"] += c("eagleeye_lp_core_solves_total", l, obs.Label{Key: "core", Value: "sparse"})
		m["lp.refactorizations"] += c("eagleeye_lp_refactorizations_total", l)
		m["lp.partial_pricing_solves"] += c("eagleeye_lp_partial_pricing_solves_total", l)
		m["lp.basis_reuses"] += c("eagleeye_warmstart_basis_reuses_total", l)
		m["lp.iter_limited"] += c("eagleeye_lp_iter_limited_total", l)
	}
	for _, stage := range []string{"ephemeris", "detect", "cluster", "sched", "execute", "account"} {
		m["sim.stage."+stage+"_s"] = c("eagleeye_stage_nanoseconds_total", obs.Label{Key: "stage", Value: stage}) / 1e9
	}
	return m
}

// addCounters adds b into a, scaled by f.
func addCounters(a, b map[string]float64, f float64) {
	for k, v := range b {
		a[k] += v * f
	}
}

// subCounters returns after - before, key by key.
func subCounters(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// finishRatios replaces the intermediate warm-start count with the hit
// ratio over its base (sched.warm_attempts, reported beside it).
func finishRatios(m map[string]float64) {
	if a := m["sched.warm_attempts"]; a > 0 {
		m["sched.warm_hit_ratio"] = m["sched.warm_accepted"] / a
	}
	delete(m, "sched.warm_accepted")
}
