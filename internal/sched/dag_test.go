package sched

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"eagleeye/internal/mip"
)

// dagShapeProblem builds a single-follower instance of one of the shapes
// the scheduler is tested and measured on: a random frame (frameProblem's
// geometry), one frame of a drifting scene (driftFrames), or the Fig. 12
// instance generator's wider field (experiments.schedProblem: targets
// +-80 km cross-track, 30-130 km ahead, follower 100 km behind the frame
// origin).
func dagShapeProblem(shape uint8, seed int64, n uint8) *Problem {
	rng := rand.New(rand.NewSource(seed))
	m := 1 + int(n)%40
	switch shape % 3 {
	case 0:
		return randomFrame(rng, m)
	case 1:
		frames := driftFrames(rng, m, 1, 3, 300+rng.Float64()*1500)
		return frames[rng.Intn(len(frames))]
	default:
		p := frameProblem(nil, 1)
		for i := 0; i < m; i++ {
			p.Targets = append(p.Targets, Target{
				ID:    i,
				Pos:   pt(rng.Float64()*160e3-80e3, 30e3+rng.Float64()*100e3),
				Value: 0.5 + 0.5*rng.Float64(),
			})
		}
		sub := pt(0, -100e3)
		p.Followers[0] = Follower{SubPoint: sub, Boresight: sub}
		return p
	}
}

// lpSolveModel solves the problem's time-expanded ILP with the LP
// branch-and-bound under generous limits, as the reference the DAG search
// is checked against.
func lpSolveModel(p *Problem) (mip.Solution, error) {
	ar := new(ilpArena)
	m := ILP{}.buildModel(ar, p)
	if len(m.nodes) == 0 {
		return mip.Solution{Status: mip.StatusOptimal}, nil
	}
	m.emitRows(ar)
	return ar.mip.SolveOpts(m.prob, mip.Options{TimeLimit: time.Minute, MaxNodes: 1 << 20})
}

// dagSolveModel runs the DAG search on the problem's model and returns
// its objective and extracted (unpolished) schedule.
func dagSolveModel(t *testing.T, p *Problem, budget int) (obj float64, s Schedule, nodes int, ok bool) {
	t.Helper()
	ar := new(ilpArena)
	m := ILP{}.buildModel(ar, p)
	if len(m.nodes) == 0 {
		return 0, Schedule{Captures: make([][]Capture, 1)}, 0, true
	}
	x, obj, nodes, ok := m.solveDAG(ar, budget)
	if !ok {
		return 0, Schedule{}, nodes, false
	}
	// The returned vector must be the solution the objective claims.
	var cx float64
	for j, v := range x {
		cx += m.prob.C[j] * v
	}
	if math.Abs(cx-obj) > 1e-9*(1+math.Abs(obj)) {
		t.Fatalf("DAG objective %v, but C.x = %v", obj, cx)
	}
	return obj, m.extract(ar, p, x), nodes, true
}

// FuzzDAGvsILP is the differential test of the single-follower DAG
// search against the LP branch-and-bound it replaces: whenever the LP
// solve proves optimality, the two objectives must agree to
// 1e-9*(1+|obj|), and the DAG's schedule -- raw and through the full
// scheduler -- must be executable.
func FuzzDAGvsILP(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for shape := uint8(0); shape < 3; shape++ {
			f.Add(shape, seed, uint8(6+7*seed))
		}
	}
	f.Add(uint8(0), int64(11), uint8(4)) // five targets; the first bound revisits one
	f.Add(uint8(2), int64(7), uint8(39)) // a full 40-target field
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, n uint8) {
		p := dagShapeProblem(shape, seed, n)
		dagObj, raw, _, ok := dagSolveModel(t, p, dagNodeBudget)
		if !ok {
			t.Skip("DAG search ran out of budget; the scheduler falls back to the LP")
		}
		if err := ValidateSchedule(p, &raw); err != nil {
			t.Fatalf("DAG path infeasible: %v", err)
		}
		full, err := ILP{}.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateSchedule(p, &full); err != nil {
			t.Fatalf("scheduled DAG path infeasible: %v", err)
		}
		sol, err := lpSolveModel(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != mip.StatusOptimal {
			return
		}
		if math.Abs(dagObj-sol.Objective) > 1e-9*(1+math.Abs(sol.Objective)) {
			t.Fatalf("DAG objective %.15g, LP branch-and-bound %.15g", dagObj, sol.Objective)
		}
	})
}

// TestDAGBudgetFallback drives the budget fallback: a DAG search cut off
// before it can certify its path hands the model to the LP
// branch-and-bound, whose schedule is returned (with its own stats) and
// is worth the same as the DAG search's. The instance's first
// longest-path pass counts a target twice, so a one-pass budget cannot
// close it.
func TestDAGBudgetFallback(t *testing.T) {
	p := dagShapeProblem(0, 11, 4)
	dag, err := ILP{}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if dag.SolveStats.Algorithm != "ilp-dag" || dag.SolveStats.Iters != 0 || !dag.SolveStats.Optimal {
		t.Fatalf("default solve: %+v, want an optimal DAG search", dag.SolveStats)
	}
	lp, err := ILP{dagBudget: 1}.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if lp.SolveStats.Algorithm != "ilp" || lp.SolveStats.Iters == 0 || !lp.SolveStats.Optimal {
		t.Fatalf("budget-1 solve: %+v, want an optimal LP branch-and-bound", lp.SolveStats)
	}
	if err := ValidateSchedule(p, &lp); err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp.Value-dag.Value) > 1e-9 {
		t.Fatalf("fallback schedule worth %v, DAG schedule %v", lp.Value, dag.Value)
	}

	// With cross-frame state the fallback runs the warm LP pipeline and
	// leaves the state consistent for the next (DAG) frame.
	st := NewSolverState()
	warm := ILP{State: st, dagBudget: 1}
	if out, err := warm.Schedule(p); err != nil || out.SolveStats.Algorithm != "ilp" || !out.SolveStats.WarmAttempted {
		t.Fatalf("stateful fallback: %+v %v", out.SolveStats, err)
	}
	warm.dagBudget = 0
	out, err := warm.Schedule(p)
	if err != nil || out.SolveStats.Algorithm != "ilp-dag" {
		t.Fatalf("stateful DAG after fallback: %+v %v", out.SolveStats, err)
	}
	if st.RowReuses == 0 {
		t.Error("second frame of the same scene did not reuse the topology")
	}
	if math.Abs(out.Value-dag.Value) > 1e-9 {
		t.Fatalf("stateful DAG schedule worth %v, cold %v", out.Value, dag.Value)
	}
}
