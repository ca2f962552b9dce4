package mip

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/lp"
)

// TestRootIterLimitReportsLimit pins the status fix: when every node LP is
// abandoned at the simplex iteration limit -- including the root -- the
// search proved nothing, and the old code's "drained heap means infeasible"
// default misreported a perfectly feasible model.
func TestRootIterLimitReportsLimit(t *testing.T) {
	p := NewBinary(2)
	p.C[0], p.C[1] = 1, 1
	p.AddRow([]float64{1, 1}, lp.LE, 1.5)
	sol, err := SolveOpts(p, Options{MaxLPIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit {
		t.Errorf("status = %v, want %v (root LP iteration-limited, nothing proven)", sol.Status, StatusLimit)
	}
	// The same model with room to iterate is optimal, confirming the limit
	// status above was about the budget and not the model.
	full, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusOptimal || math.Abs(full.Objective-1) > 1e-6 {
		t.Errorf("unrestricted solve: %v obj %v, want optimal 1", full.Status, full.Objective)
	}
}

// TestGapBoundsOptimumOnEarlyStop pins the gap fix: on an early stop,
// incumbent + Gap must still be a valid upper bound for the true optimum,
// with the bound recomputed from the open nodes rather than frozen at the
// root relaxation.
func TestGapBoundsOptimumOnEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	earlyStops := 0
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(3)
		p := NewBinary(n)
		for j := 0; j < n; j++ {
			p.C[j] = math.Round(rng.Float64()*40 + 1)
		}
		row := make([]float64, n)
		total := 0.0
		for j := range row {
			row[j] = math.Round(rng.Float64()*20 + 1)
			total += row[j]
		}
		p.AddRow(row, lp.LE, math.Round(total*0.4))

		truth, found := bruteForceBinary(p)
		if !found {
			continue
		}
		sol, err := SolveOpts(p, Options{MaxNodes: 2 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusFeasible {
			continue // proved optimal (or found nothing) inside the node budget
		}
		earlyStops++
		if sol.Gap < 0 {
			t.Fatalf("trial %d: negative gap %v", trial, sol.Gap)
		}
		if sol.Objective+sol.Gap < truth-1e-6 {
			t.Fatalf("trial %d: incumbent %v + gap %v excludes true optimum %v",
				trial, sol.Objective, sol.Gap, truth)
		}
		// The recomputed bound can only be as good as or better than the
		// root relaxation the old code reported.
		root, err := lp.Solve(&p.Problem)
		if err != nil {
			t.Fatal(err)
		}
		if root.Status == lp.StatusOptimal && sol.Objective+sol.Gap > root.Objective+1e-6 {
			t.Fatalf("trial %d: stop bound %v looser than root relaxation %v",
				trial, sol.Objective+sol.Gap, root.Objective)
		}
	}
	if earlyStops == 0 {
		t.Fatal("no trial stopped early with an incumbent; the test exercised nothing")
	}
}

// TestRoundedIncumbentVerified pins the rounding fix: a point integral
// within IntTol can round onto the wrong side of a tight, large-coefficient
// row. The solver must reject the rounded point and keep the LP-feasible
// one instead of installing an infeasible incumbent.
func TestRoundedIncumbentVerified(t *testing.T) {
	p := NewBinary(2)
	p.C[0], p.C[1] = 1, 1
	// At the LP vertex x = (1, 0.9999); rounding x2 to 1 overshoots the
	// row by 10, far beyond any feasibility tolerance.
	p.AddRow([]float64{1e5, 1e5}, lp.LE, 199990)
	sol, err := SolveOpts(p, Options{IntTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	lhs := 1e5*sol.X[0] + 1e5*sol.X[1]
	if lhs > 199990+0.5 {
		t.Errorf("incumbent violates its row: %v > 199990 (rounding was not verified)", lhs)
	}
	if math.Abs(sol.Objective-1.9999) > 1e-6 {
		t.Errorf("objective = %v, want 1.9999 (the unrounded LP point)", sol.Objective)
	}
	recomputed := sol.X[0]*p.C[0] + sol.X[1]*p.C[1]
	if math.Abs(sol.Objective-recomputed) > 1e-9 {
		t.Errorf("objective %v does not match its own point %v", sol.Objective, recomputed)
	}
}

// TestSolverStatsPopulated checks the observability plumbing: a nontrivial
// solve reports its node count and simplex iterations.
func TestSolverStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	p := NewBinary(n)
	row := make([]float64, n)
	for j := 0; j < n; j++ {
		p.C[j] = math.Round(rng.Float64()*30 + 1)
		row[j] = math.Round(rng.Float64()*15 + 1)
	}
	p.AddRow(row, lp.LE, 40)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Nodes < 1 || sol.Iters < 1 {
		t.Errorf("stats not populated: nodes %d iters %d", sol.Nodes, sol.Iters)
	}
	if sol.Iters < sol.Nodes {
		t.Errorf("iters %d < nodes %d: every solved node costs at least one iteration", sol.Iters, sol.Nodes)
	}
}

// TestRefactorAlarmsDelta checks that a solve reports the LP stability
// alarms it caused as a per-solve delta: the tiny 1e-8 pivot forces one
// alarm on the first solve, and a second solve on the same workspace
// reports its own alarm rather than the running total.
func TestRefactorAlarmsDelta(t *testing.T) {
	p := &Problem{}
	p.C = []float64{1, 1}
	p.AddRow([]float64{1, 0}, lp.LE, 1)
	p.AddRow([]float64{0, 1e-8}, lp.LE, 1e-8)
	var w Workspace
	for i := 0; i < 2; i++ {
		sol, err := w.SolveOpts(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-2) > 1e-6 {
			t.Fatalf("solve %d: status %v objective %v, want optimal 2", i, sol.Status, sol.Objective)
		}
		if sol.RefactorAlarms != 1 {
			t.Errorf("solve %d: RefactorAlarms = %d, want 1", i, sol.RefactorAlarms)
		}
	}
}
