package lp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSparseDenseDifferential cross-checks the sparse engine against the
// dense oracle on random bounded LPs: mixed row senses, free and mirrored
// variables, finite upper bounds, occasional duplicated (degenerate)
// rows. Statuses must agree, optimal objectives must match to 1e-6, and
// the sparse engine's point must satisfy the model. The byte seed drives a PRNG so
// every fuzz input maps to one deterministic instance.
func FuzzSparseDenseDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(987654321))
	f.Add(int64(20260808))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(8)
		p := &Problem{
			C:      make([]float64, n),
			B:      make([]float64, m),
			Senses: make([]Sense, m),
			Lower:  make([]float64, n),
			Upper:  make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.C[j] = math.Round(rng.Float64()*10 - 5)
			switch rng.Intn(5) {
			case 0:
				p.Lower[j] = math.Inf(-1) // free below
			case 1:
				p.Lower[j] = -math.Round(rng.Float64() * 3)
			default:
				p.Lower[j] = 0
			}
			if rng.Intn(2) == 0 {
				lo := p.Lower[j]
				if math.IsInf(lo, -1) {
					lo = -3
				}
				p.Upper[j] = lo + math.Round(rng.Float64()*5)
			} else {
				p.Upper[j] = math.Inf(1)
			}
		}
		rows := make([][]float64, m)
		for i := 0; i < m; i++ {
			if i > 0 && rng.Intn(6) == 0 {
				// Duplicated row: a degenerate, rank-deficient block.
				rows[i] = rows[rng.Intn(i)]
				p.B[i] = p.B[rng.Intn(i)]
				p.Senses[i] = p.Senses[rng.Intn(i)]
				continue
			}
			row := make([]float64, n)
			for j := range row {
				if rng.Float64() < 0.45 {
					continue // keep rows sparse
				}
				row[j] = math.Round(rng.Float64()*8 - 4)
			}
			rows[i] = row
			p.Senses[i] = []Sense{LE, LE, GE, EQ}[rng.Intn(4)]
			p.B[i] = math.Round(rng.Float64()*12 - 4)
		}
		p.A = rows

		dense := solveCore(t, p, coreDense)
		sparse := solveCore(t, p, coreSparse)
		if dense.Status == StatusIterLimit || sparse.Status == StatusIterLimit {
			t.Skip("iteration limit") // no ground truth to compare
		}
		if dense.Status != sparse.Status {
			t.Fatalf("seed %d: dense=%v sparse=%v", seed, dense.Status, sparse.Status)
		}
		if dense.Status != StatusOptimal {
			return
		}
		tol := 1e-6 * (1 + math.Abs(dense.Objective))
		if math.Abs(dense.Objective-sparse.Objective) > tol {
			t.Fatalf("seed %d: objective dense=%v sparse=%v", seed, dense.Objective, sparse.Objective)
		}
		checkFeasible(t, p, sparse.X, seed)
	})
}

// checkFeasible verifies x against p's rows and bounds with tolerance.
func checkFeasible(t *testing.T, p *Problem, x []float64, seed int64) {
	t.Helper()
	const tol = 1e-6
	for j := range x {
		if x[j] < p.lower(j)-tol || x[j] > p.upper(j)+tol {
			t.Fatalf("seed %d: x[%d]=%v outside [%v,%v]", seed, j, x[j], p.lower(j), p.upper(j))
		}
	}
	for i, row := range p.A {
		lhs := 0.0
		for j, v := range row {
			lhs += v * x[j]
		}
		scale := 1 + math.Abs(p.B[i])
		switch p.Senses[i] {
		case LE:
			if lhs > p.B[i]+tol*scale {
				t.Fatalf("seed %d: row %d: %v <= %v violated", seed, i, lhs, p.B[i])
			}
		case GE:
			if lhs < p.B[i]-tol*scale {
				t.Fatalf("seed %d: row %d: %v >= %v violated", seed, i, lhs, p.B[i])
			}
		case EQ:
			if math.Abs(lhs-p.B[i]) > tol*scale {
				t.Fatalf("seed %d: row %d: %v == %v violated", seed, i, lhs, p.B[i])
			}
		}
	}
}
