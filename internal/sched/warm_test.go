package sched

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/geo"
)

// driftFrames builds a sequence of related problems: a cluster of targets
// drifts toward the followers by stepM per frame, the way a ground scene
// advances under a leader between scheduling cadences.
func driftFrames(rng *rand.Rand, nTargets, nFollowers, frames int, stepM float64) []*Problem {
	base := make([]geo.Point2, nTargets)
	vals := make([]float64, nTargets)
	for i := range base {
		base[i] = pt(rng.Float64()*60e3-30e3, 60e3+rng.Float64()*60e3)
		vals[i] = 0.5 + rng.Float64()
	}
	out := make([]*Problem, frames)
	for f := 0; f < frames; f++ {
		tgts := make([]Target, nTargets)
		for i := range tgts {
			tgts[i] = Target{
				ID:    i + 1,
				Pos:   pt(base[i].X, base[i].Y-float64(f)*stepM),
				Value: vals[i],
			}
		}
		out[f] = frameProblem(tgts, nFollowers)
	}
	return out
}

// TestILPEdgeVarsUnbounded pins the bounded-simplex pitfall: the sched ILP
// must keep edge variables at Upper = +inf and let the in(v) <= 1 rows cap
// them, because explicit [0,1] edge bounds are a measured ~1.6x slowdown
// on the 40x2 benchmark (per-edge bound flips walk slot groups one at a
// time where the row cap prices them at once). Warm-start or model
// refactors must not quietly reintroduce the explicit bounds.
func TestILPEdgeVarsUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := driftFrames(rng, 8, 2, 1, 0)[0]
	var s ILP
	ar := getILPArena()
	defer putILPArena(ar)
	m := s.buildModel(ar, p)
	m.emitRows(ar)
	if m.ne == 0 {
		t.Fatal("model has no edges; workload too sparse for the regression check")
	}
	for e := 0; e < m.ne; e++ {
		if !math.IsInf(m.prob.Upper[e], 1) {
			t.Fatalf("edge var %d has Upper = %v, want +inf (explicit [0,1] edge bounds are a known slowdown)", e, m.prob.Upper[e])
		}
		if m.prob.Lower[e] != 0 {
			t.Fatalf("edge var %d has Lower = %v, want 0", e, m.prob.Lower[e])
		}
		if !m.prob.Integer[e] {
			t.Fatalf("edge var %d not marked integer", e)
		}
	}
}

// TestEdgeCostTieBreak pins the objective's two-level structure: every
// edge costs at least the flat motion penalty, earlier slots cost strictly
// less than later ones, and the slot preference across a whole frame span
// stays smaller than one motion penalty, so it can break ties but never
// reorder routes with different capture counts.
func TestEdgeCostTieBreak(t *testing.T) {
	if edgeCost(0) != -1e-6 {
		t.Fatalf("edgeCost(0) = %v, want -1e-6", edgeCost(0))
	}
	if !(edgeCost(5) < edgeCost(2)) {
		t.Fatal("later slot not penalized more than earlier slot")
	}
	// One slot granule (300 ms) must clear the solver's 1e-9 tolerances...
	if d := edgeCost(0) - edgeCost(0.3); d < 2e-9 {
		t.Fatalf("slot granule preference %v too small for solver tolerances", d)
	}
	// ...while one edge's slot preference across a 60 s window stays below
	// the flat motion penalty, keeping the layering value >> motion >>
	// slot time intact per edge.
	if d := edgeCost(0) - edgeCost(60); d >= 1e-6 {
		t.Fatalf("per-edge slot preference %v overwhelms the motion penalty", d)
	}
}

// assertEquivalentSchedule pins the scheduler-level warm-start contract:
// a warm schedule must carry exactly the cold objective value and be a
// feasible schedule in its own right. Capture-by-capture identity is NOT
// required here -- two route orders whose slot-time sums collide within
// the solver tolerances are an unresolvable tie (see edgeCost), and warm
// and cold solves may legitimately return different members of such a
// tie. Byte-level identity is asserted one layer up, on the fixed
// simulation workloads (sim.TestWarmStartResultIdentity).
func assertEquivalentSchedule(t *testing.T, tag string, p *Problem, cold, warm Schedule) {
	t.Helper()
	if math.Abs(cold.Value-warm.Value) > 1e-9 {
		t.Fatalf("%s: value cold %v warm %v", tag, cold.Value, warm.Value)
	}
	if err := ValidateSchedule(p, &warm); err != nil {
		t.Fatalf("%s: warm schedule infeasible: %v", tag, err)
	}
	if err := ValidateSchedule(p, &cold); err != nil {
		t.Fatalf("%s: cold schedule infeasible: %v", tag, err)
	}
	if len(cold.Captures) != len(warm.Captures) {
		t.Fatalf("%s: follower counts differ", tag)
	}
}

// TestWarmColdEquivalentSchedules drives a warm ILP (cross-frame state)
// and a cold one over the same drifting frame sequences and requires an
// equal-objective, feasible schedule frame by frame. Multi-follower
// sequences run on the LP, where the warm pipeline must engage;
// single-follower sequences run on the DAG search, which offers no warm
// candidate and must do no LP work.
func TestWarmColdEquivalentSchedules(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frames := driftFrames(rng, 4+rng.Intn(5), 1+rng.Intn(3), 6, 800)
		single := len(frames[0].Followers) == 1
		st := NewSolverState()
		warm := ILP{State: st}
		cold := ILP{}
		for _, p := range frames {
			ws, err := warm.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := cold.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			if single && ws.SolveStats.Nodes > 0 && (ws.SolveStats.Algorithm != "ilp-dag" || ws.SolveStats.Iters != 0) {
				t.Fatalf("seed %d: single-follower solve ran %q with %d LP iterations, want the DAG search",
					seed, ws.SolveStats.Algorithm, ws.SolveStats.Iters)
			}
			if !ws.SolveStats.Optimal || !cs.SolveStats.Optimal {
				continue // truncated solves carry no identity guarantee
			}
			assertEquivalentSchedule(t, "seed/frame", p, cs, ws)
		}
		if single {
			if st.Projections+st.GreedySeeds != 0 {
				t.Fatalf("seed %d: DAG solves built %d LP warm candidates", seed, st.Projections+st.GreedySeeds)
			}
		} else if st.GreedySeeds+st.ProjectionHits == 0 {
			t.Fatalf("seed %d: warm pipeline never produced a candidate", seed)
		}
	}
}

// TestSolverStateMachinery exercises the cross-frame mechanisms directly:
// repeated same-scene frames must hit the frame-delta row reuse and the
// previous-schedule projection, and the LP basis must be reused. The LP
// mechanisms run on a two-follower scene, whose joint model the LP
// solves; a single-follower scene goes to the DAG search, which must still
// reuse the frame-delta topology and remember its schedule.
func TestSolverStateMachinery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := driftFrames(rng, 6, 2, 5, 200) // gentle drift: topology stable
	st := NewSolverState()
	s := ILP{State: st}
	reuses := 0
	for _, p := range frames {
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		reuses += out.SolveStats.BasisReuses
		if !out.SolveStats.Warm {
			t.Fatal("stateful solve not marked warm")
		}
	}
	if st.Projections == 0 || st.ProjectionHits == 0 {
		t.Errorf("projection never fired: attempts %d hits %d", st.Projections, st.ProjectionHits)
	}
	if st.RowReuses == 0 {
		t.Error("frame-delta row reuse never fired on a stable topology")
	}
	if reuses == 0 {
		t.Error("LP basis/crash install never fired")
	}

	// Reset must clear the decision-relevant state so a pooled state
	// behaves like a fresh one.
	st.Reset()
	if st.Projections != 0 || st.RowReuses != 0 || st.prevN != 0 || st.snapValid {
		t.Error("Reset left decision-relevant state behind")
	}

	// The same gentle drift with one follower: every frame is a DAG
	// search that reuses the topology and leaves a schedule to project.
	rng = rand.New(rand.NewSource(11))
	for _, p := range driftFrames(rng, 6, 1, 5, 200) {
		out, err := s.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if out.SolveStats.Algorithm != "ilp-dag" || out.SolveStats.Iters != 0 || !out.SolveStats.Optimal {
			t.Fatalf("single-follower solve: %+v, want an optimal DAG search", out.SolveStats)
		}
		if st.prevN != out.NumCaptures() {
			t.Fatalf("remembered %d captures, schedule has %d", st.prevN, out.NumCaptures())
		}
	}
	if st.RowReuses == 0 {
		t.Error("frame-delta topology reuse never fired on the single-follower scene")
	}
	if st.Projections != 0 {
		t.Errorf("DAG solves attempted %d LP warm projections", st.Projections)
	}
}

// FuzzWarmStartDifferential cross-checks warm and cold scheduling on
// randomized drifting frame sequences: for every frame where both solves
// certify optimality, the warm schedule must match the cold objective and
// be feasible (the warm-start differential contract).
func FuzzWarmStartDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-3))
	f.Add(int64(987654321))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		frames := driftFrames(rng, 2+rng.Intn(6), 1+rng.Intn(3), 4, 300+rng.Float64()*1500)
		st := NewSolverState()
		warm := ILP{State: st}
		cold := ILP{}
		for _, p := range frames {
			ws, err := warm.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := cold.Schedule(p)
			if err != nil {
				t.Fatal(err)
			}
			if !ws.SolveStats.Optimal || !cs.SolveStats.Optimal {
				continue
			}
			assertEquivalentSchedule(t, "fuzz", p, cs, ws)
		}
	})
}
