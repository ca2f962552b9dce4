package mip

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/lp"
)

// randomBinary builds a small random binary MIP with integer data (so
// brute-force feasibility agrees with the solver's tolerance checks).
func randomBinary(rng *rand.Rand) *Problem {
	n := 3 + rng.Intn(6)
	m := 1 + rng.Intn(5)
	p := NewBinary(n)
	for j := 0; j < n; j++ {
		p.C[j] = math.Round(rng.Float64()*20 - 6)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = math.Round(rng.Float64()*8 - 3)
		}
		p.AddRow(row, lp.LE, math.Round(rng.Float64()*10))
	}
	return p
}

// TestWarmStartBadCandidatesRejected verifies that candidates violating
// bounds, integrality, or a constraint row are rejected -- and that the
// solve still returns the cold optimum.
func TestWarmStartBadCandidatesRejected(t *testing.T) {
	p := NewBinary(3)
	p.C = []float64{3, 2, 1}
	p.AddRow([]float64{1, 1, 1}, lp.LE, 2)
	cold, err := SolveOpts(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	bad := [][]float64{
		{1, 1, 1},   // violates the row
		{0.5, 0, 0}, // fractional
		{2, 0, 0},   // out of bounds
		{1, 0},      // wrong length
	}
	for i, cand := range bad {
		sol, err := SolveOpts(p, Options{WarmStart: cand})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.WarmAttempted {
			t.Errorf("case %d: warm attempt not recorded", i)
		}
		if sol.WarmAccepted {
			t.Errorf("case %d: invalid candidate %v accepted", i, cand)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-cold.Objective) > 1e-9 {
			t.Errorf("case %d: rejected candidate changed the result: %v vs %v", i, sol.Objective, cold.Objective)
		}
	}
}

// TestWarmStartFloorKeepsColdResult solves random binary MIPs cold, then
// re-solves warm-started with the cold optimum as the candidate. The
// default (floor) mode must return exactly the cold objective, and the
// candidate must be accepted.
func TestWarmStartFloorKeepsColdResult(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 60; k++ {
		p := randomBinary(rng)
		cold, err := SolveOpts(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		cand := make([]float64, len(cold.X))
		for j, v := range cold.X {
			cand[j] = math.Round(v)
		}
		warm, err := SolveOpts(p, Options{WarmStart: cand})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.WarmAccepted {
			t.Fatalf("case %d: optimal candidate rejected", k)
		}
		if warm.Status != StatusOptimal || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("case %d: warm objective %v, cold %v", k, warm.Objective, cold.Objective)
		}
	}
}

// TestReuseBasisSameResults re-solves the same workspace with ReuseBasis
// across a sequence of bound-perturbed problems (a branch-and-bound-like
// stream) and checks every solve against a cold workspace.
func TestReuseBasisSameResults(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 30; k++ {
		p := randomBinary(rng)
		var warmWS, coldWS Workspace
		for step := 0; step < 4; step++ {
			if step > 0 {
				// Fix a random variable, as branching would.
				j := rng.Intn(len(p.C))
				v := float64(rng.Intn(2))
				p.Lower[j] = v
				p.Upper[j] = v
			}
			warm, err := warmWS.SolveOpts(p, Options{ReuseBasis: true})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldWS.SolveOpts(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("case %d step %d: status warm %v cold %v", k, step, warm.Status, cold.Status)
			}
			if warm.Status == StatusOptimal && math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("case %d step %d: objective warm %v cold %v", k, step, warm.Objective, cold.Objective)
			}
		}
	}
}

// TestWarmSeedReducesRootWork verifies the crash-basis path end to end: a
// warm candidate plus ReuseBasis must not change the optimum, and on an
// instance with an integral relaxation it should cut the LP iteration
// count of the root solve.
func TestWarmSeedReducesRootWork(t *testing.T) {
	// Assignment-like problem with an integral LP relaxation: four disjoint
	// pairs, pick one per pair, plus a budget row coupling the pairs. Large
	// enough that crashing the optimal vertex saves phase-2 pivots.
	p := NewBinary(8)
	p.C = []float64{5, 3, 4, 2, 6, 1, 7, 2}
	p.AddRow([]float64{1, 1, 0, 0, 0, 0, 0, 0}, lp.LE, 1)
	p.AddRow([]float64{0, 0, 1, 1, 0, 0, 0, 0}, lp.LE, 1)
	p.AddRow([]float64{0, 0, 0, 0, 1, 1, 0, 0}, lp.LE, 1)
	p.AddRow([]float64{0, 0, 0, 0, 0, 0, 1, 1}, lp.LE, 1)
	p.AddRow([]float64{1, 0, 1, 0, 1, 0, 1, 0}, lp.LE, 3)
	cold, err := SolveOpts(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	warm, err := ws.SolveOpts(p, Options{WarmStart: []float64{0, 1, 1, 0, 1, 0, 1, 0}, ReuseBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("seeded solve wrong: %v vs %v", warm.Objective, cold.Objective)
	}
	if warm.BasisReuses == 0 {
		t.Error("crash-basis seed never installed")
	}
	if warm.Iters >= cold.Iters {
		t.Errorf("seeded root used %d iters, cold %d; expected fewer", warm.Iters, cold.Iters)
	}
}
