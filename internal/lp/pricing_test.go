package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solvePriced runs one problem on a fresh sparse-core workspace with the
// given pricing window, returning the workspace for counter inspection.
func solvePriced(t *testing.T, p *Problem, window int) (*Workspace, Solution) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ws := &Workspace{PricingWindow: window}
	return ws, ws.Solve(p)
}

func TestPartialPricingMatchesFullSchedShaped(t *testing.T) {
	// A sched-shaped instance large enough that a forced small window
	// rotates many times per solve. Full pricing (window < 0) is the
	// oracle; statuses and objectives must agree.
	p := GenSchedLP(40, 8, 6, 5, 11)
	wsFull, full := solvePriced(t, p, -1)
	wsWin, win := solvePriced(t, p, 64)
	if full.Status != win.Status {
		t.Fatalf("status: full=%v windowed=%v", full.Status, win.Status)
	}
	if full.Status != StatusOptimal {
		t.Fatalf("oracle not optimal: %v", full.Status)
	}
	tol := 1e-6 * (1 + math.Abs(full.Objective))
	if math.Abs(full.Objective-win.Objective) > tol {
		t.Fatalf("objective: full=%v windowed=%v", full.Objective, win.Objective)
	}
	checkFeasible(t, p, win.X, 11)
	if wsFull.PartialPricingSolves != 0 {
		t.Errorf("full pricing counted %d partial solves", wsFull.PartialPricingSolves)
	}
	if wsWin.PartialPricingSolves == 0 {
		t.Error("windowed solve not counted as partial")
	}
}

func TestPartialPricingAutoThresholdKeepsSmallModelsFull(t *testing.T) {
	// The automatic policy (PricingWindow == 0) must leave every model
	// below partialPricingMinCols priced columns on the historical full
	// Dantzig sweep, so seed-scale pivot sequences are unchanged.
	p := GenSchedLP(20, 6, 4, 3, 7)
	ws, sol := solvePriced(t, p, 0)
	if sol.Status != StatusOptimal {
		t.Fatalf("status: %v", sol.Status)
	}
	if ws.PartialPricingSolves != 0 {
		t.Errorf("auto policy engaged partial pricing on a small model (%d solves)", ws.PartialPricingSolves)
	}
}

func TestPartialPricingUnderBland(t *testing.T) {
	// Forcing Bland's rule from the first iteration must still terminate
	// and agree with the dense oracle: the partial path defers to a full
	// ascending first-eligible scan whenever Bland is active.
	p := GenSchedLP(25, 6, 5, 4, 13)
	dense := solveCore(t, p, coreDense)
	ws := &Workspace{PricingWindow: 32, blandOverride: 1}
	sol := ws.Solve(p)
	if dense.Status == StatusIterLimit || sol.Status == StatusIterLimit {
		t.Skip("iteration limit")
	}
	if dense.Status != sol.Status {
		t.Fatalf("status: dense=%v bland-windowed=%v", dense.Status, sol.Status)
	}
	if dense.Status == StatusOptimal {
		tol := 1e-6 * (1 + math.Abs(dense.Objective))
		if math.Abs(dense.Objective-sol.Objective) > tol {
			t.Fatalf("objective: dense=%v bland-windowed=%v", dense.Objective, sol.Objective)
		}
	}
}

// FuzzPartialPricingDifferential is the partial-pricing sibling of
// FuzzSparseDenseDifferential: the same random bounded LPs, solved by the
// dense full-pricing oracle and by the sparse core with a deliberately
// tiny rotating window so even 10-column instances exercise rotation,
// extension and the empty-rotation optimality certificate.
func FuzzPartialPricingDifferential(f *testing.F) {
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
				p.Lower[j] = math.Inf(-1)
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
				rows[i] = rows[rng.Intn(i)]
				p.B[i] = p.B[rng.Intn(i)]
				p.Senses[i] = p.Senses[rng.Intn(i)]
				continue
			}
			row := make([]float64, n)
			for j := range row {
				if rng.Float64() < 0.45 {
					continue
				}
				row[j] = math.Round(rng.Float64()*8 - 4)
			}
			rows[i] = row
			p.Senses[i] = []Sense{LE, LE, GE, EQ}[rng.Intn(4)]
			p.B[i] = math.Round(rng.Float64()*12 - 4)
		}
		p.A = rows

		dense := solveCore(t, p, coreDense)
		_, win := solvePriced(t, p, 2)
		if dense.Status == StatusIterLimit || win.Status == StatusIterLimit {
			t.Skip("iteration limit")
		}
		if dense.Status != win.Status {
			t.Fatalf("seed %d: dense=%v windowed=%v", seed, dense.Status, win.Status)
		}
		if dense.Status != StatusOptimal {
			return
		}
		tol := 1e-6 * (1 + math.Abs(dense.Objective))
		if math.Abs(dense.Objective-win.Objective) > tol {
			t.Fatalf("seed %d: objective dense=%v windowed=%v", seed, dense.Objective, win.Objective)
		}
		checkFeasible(t, p, win.X, seed)
	})
}
