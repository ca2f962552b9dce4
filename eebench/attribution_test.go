package main

import (
	"math"
	"testing"
	"time"
)

// An injected per-call slowdown in the scheduler must show up where it
// happened: in sched self time and in the frame set's host time, while the
// solver and shard work counts -- which a pure slowdown does not change --
// stay exactly as they were, and the frame layer's own self time does not
// absorb it. The delay is added by the benchmark's scheduler wrapper, so
// the program itself is untouched.
func TestInjectedSchedDelayIsChargedToSched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dense frames")
	}
	const delay = 40 * time.Millisecond
	rig := &denseRig{}
	var frames []denseFrame
	rig.warm, frames = denseInputs()
	// One 100k-target frame: 25 shards, so 25 scheduler calls, and cheap.
	for _, f := range frames {
		if denseClasses[f.class].targets == 100000 {
			rig.frames = []denseFrame{f}
			break
		}
	}
	rig.fols, rig.env = denseFollowerStates()

	base, err := rig.pass(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	rig.delay = delay
	slow, err := rig.pass(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	lb, ls := denseLayers(base), denseLayers(slow)

	names := map[int]string{}
	for _, s := range slow.spans {
		names[s.ID] = s.Name
	}
	calls := 0
	for _, s := range slow.spans {
		if s.Name == "sched.schedule" && names[s.Parent] == "core.frame" {
			calls++
		}
	}
	if calls != int(lb["core.shards"]) {
		t.Fatalf("%d scheduler calls for %v shards", calls, lb["core.shards"])
	}
	injected := float64(calls) * delay.Seconds()

	if got := ls["sched.self_s"] - lb["sched.self_s"]; got < 0.9*injected {
		t.Errorf("sched self time grew %.3fs, want about the injected %.3fs", got, injected)
	}
	// Two workers share the shard calls, so the frame set waits for at
	// least half of the injected time.
	if got := (slow.total - base.total).Seconds(); got < 0.8*injected/denseWorkers {
		t.Errorf("frame set time grew %.3fs, want at least %.3fs", got, 0.8*injected/denseWorkers)
	}
	if got := math.Abs(ls["core.self_s"] - lb["core.self_s"]); got > 0.2*injected/denseWorkers {
		t.Errorf("frame self time moved %.3fs: the delay was charged to the wrong layer", got)
	}
	for _, k := range []string{
		"lp.dense_solves", "lp.sparse_solves", "lp.refactorizations", "lp.partial_pricing_solves",
		"lp.basis_reuses", "lp.iter_limited",
		"cluster.solves", "cluster.nodes", "cluster.lp_iters", "cluster.grid_covers",
		"core.shards", "sched.solves", "sched.nodes", "sched.lp_iters",
	} {
		if lb[k] != ls[k] {
			t.Errorf("%s: %v without the delay, %v with it; a pure slowdown must not change work counts", k, lb[k], ls[k])
		}
	}
	for i := range base.results {
		if !sameSchedule(&base.results[i], &slow.results[i]) {
			t.Errorf("frame %d: the delay changed the schedule", i)
		}
	}
}
