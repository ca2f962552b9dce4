// Package lp implements a two-phase primal simplex solver for linear
// programs: a sparse revised simplex (CSC columns, eta-file basis
// factorization, sparse BTRAN/FTRAN pricing) behind one Solve/Workspace
// API. It is the linear-algebra substrate beneath internal/mip, which
// together replace the Google OR-Tools dependency of the paper's
// prototype (§5.1): EagleEye's target-clustering and follower-scheduling
// ILPs both reduce to models this solver handles exactly.
//
// Problems are stated as
//
//	maximize   c · x
//	subject to A x (<=|=|>=) b
//	           lower <= x <= upper   (default 0 <= x < +inf)
//
// The simplex uses Dantzig pricing with a Bland-rule fallback for
// cycling. Variable bounds are handled implicitly (nonbasic variables sit
// at either bound and may flip between them without a pivot), so finite
// upper bounds cost no constraint rows. For the all-binary MIPs EagleEye
// builds this halves the row count relative to the textbook "upper bound
// = extra <= row" encoding. Free variables are handled natively: a
// free-below variable with a finite upper bound is mirrored
// (x = upper - x'), and a fully free variable is split into x⁺ - x⁻.
//
// A Workspace reuses its arenas across solves of same-shaped problems,
// which is what makes per-node re-solves in branch and bound
// allocation-free. A dense-tableau implementation of the same pivot
// rules lives in the package tests as a differential oracle.
package lp

import (
	"errors"
	"fmt"
	"math"

	"eagleeye/internal/obs"
)

// Sense is the relational operator of a constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // ==
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Status describes the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Problem is a linear program in the form documented at the package level.
// Lower and Upper may be nil, meaning all-zero lower bounds and all-+inf
// upper bounds. Rows of A must all have len == len(C).
//
// Rows may alternatively be stored sparse (CSR) via RowPtr/ColIdx/Vals;
// exactly one of A and RowPtr may be set. Model builders that emit
// thousands of mostly-zero rows (sched, cluster) use the sparse form,
// which the solver consumes directly without densifying rows.
type Problem struct {
	C      []float64   // objective coefficients (maximize)
	A      [][]float64 // constraint matrix rows (dense form)
	B      []float64   // right-hand sides
	Senses []Sense     // one per row
	Lower  []float64   // optional per-variable lower bounds
	Upper  []float64   // optional per-variable upper bounds

	// Sparse row storage (CSR). When RowPtr is non-nil it replaces A:
	// row i's coefficients are Vals[RowPtr[i]:RowPtr[i+1]] at columns
	// ColIdx[RowPtr[i]:RowPtr[i+1]]. Column indices must not repeat
	// within a row. Assemble with ResetSparseRows/Coef/EndRow.
	RowPtr []int
	ColIdx []int32
	Vals   []float64
}

// ResetSparseRows switches p to CSR row storage and clears all rows,
// keeping capacity. Rows are then appended with Coef and closed with
// EndRow.
func (p *Problem) ResetSparseRows() {
	p.A = nil
	if p.RowPtr == nil {
		p.RowPtr = make([]int, 1, 64)
	}
	p.RowPtr = p.RowPtr[:1]
	p.RowPtr[0] = 0
	p.ColIdx = p.ColIdx[:0]
	p.Vals = p.Vals[:0]
	p.B = p.B[:0]
	p.Senses = p.Senses[:0]
}

// Coef appends one coefficient to the CSR row under construction (opened
// implicitly by ResetSparseRows or the previous EndRow). Columns may
// arrive in any order but must not repeat within a row.
func (p *Problem) Coef(j int, v float64) {
	p.ColIdx = append(p.ColIdx, int32(j))
	p.Vals = append(p.Vals, v)
}

// EndRow closes the CSR row under construction with its sense and RHS.
func (p *Problem) EndRow(s Sense, b float64) {
	p.RowPtr = append(p.RowPtr, len(p.ColIdx))
	p.Senses = append(p.Senses, s)
	p.B = append(p.B, b)
}

// NNZ reports the stored coefficient count: structural nonzeros for CSR
// rows, m*n for dense rows (the dense form stores every entry).
func (p *Problem) NNZ() int {
	if p.RowPtr != nil {
		return len(p.Vals)
	}
	return len(p.B) * len(p.C)
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: no variables")
	}
	rows := len(p.B)
	if p.RowPtr != nil {
		if len(p.A) != 0 {
			return errors.New("lp: both dense A and CSR rows set")
		}
		if len(p.RowPtr) != rows+1 || len(p.Senses) != rows {
			return fmt.Errorf("lp: inconsistent CSR row counts: rowptr=%d B=%d senses=%d",
				len(p.RowPtr), rows, len(p.Senses))
		}
		if len(p.ColIdx) != len(p.Vals) || p.RowPtr[rows] != len(p.ColIdx) {
			return fmt.Errorf("lp: inconsistent CSR storage: colidx=%d vals=%d rowptr[last]=%d",
				len(p.ColIdx), len(p.Vals), p.RowPtr[rows])
		}
		for i := 0; i < rows; i++ {
			if p.RowPtr[i] > p.RowPtr[i+1] {
				return fmt.Errorf("lp: CSR row %d has negative length", i)
			}
		}
		for k, j := range p.ColIdx {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("lp: CSR entry %d references column %d, want [0,%d)", k, j, n)
			}
		}
	} else {
		if len(p.A) != rows || rows != len(p.Senses) {
			return fmt.Errorf("lp: inconsistent row counts: A=%d B=%d senses=%d",
				len(p.A), len(p.B), len(p.Senses))
		}
		for i, row := range p.A {
			if len(row) != n {
				return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
			}
		}
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: lower bounds length %d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: upper bounds length %d, want %d", len(p.Upper), n)
	}
	for j := 0; j < n; j++ {
		if p.lower(j) > p.upper(j)+1e-12 {
			return fmt.Errorf("lp: variable %d has lower %v > upper %v", j, p.lower(j), p.upper(j))
		}
	}
	return nil
}

func (p *Problem) lower(j int) float64 {
	if p.Lower == nil {
		return 0
	}
	return p.Lower[j]
}

func (p *Problem) upper(j int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[j]
}

// Partial-pricing policy. Dantzig pricing is O(priced columns) per pivot;
// on shard-scale models that sweep dominates. Above
// partialPricingMinCols priced columns the optimizer prices a
// rotating window of partialPricingWindow columns instead, extending the
// window until it finds an eligible column (a full empty rotation is the
// usual optimality certificate), with a full Dantzig sweep every
// partialFullSweepPeriod iterations to keep steepest progress. The
// threshold sits far above every seed-scale model so historical pivot
// sequences -- and BENCH_lp.json seed points -- are unaffected.
const (
	partialPricingMinCols  = 8192
	partialPricingWindow   = 1024
	partialFullSweepPeriod = 32
)

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (original problem space)
	Objective float64   // c · X
	Iters     int       // simplex iterations used
}

const (
	eps        = 1e-9 // pivot / reduced-cost tolerance
	feasTol    = 1e-7 // feasibility tolerance
	defaultMax = 200000
)

// Solve optimizes the problem. The returned error is non-nil only for
// structurally invalid problems; infeasible/unbounded outcomes are reported
// through Solution.Status.
func Solve(p *Problem) (Solution, error) {
	return SolveMaxIters(p, defaultMax)
}

// SolveMaxIters is Solve with an explicit simplex iteration limit.
func SolveMaxIters(p *Problem, maxIters int) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	var ws Workspace
	return ws.SolveMaxIters(p, maxIters), nil
}

// Workspace owns the solver's working arrays so repeated solves of
// same-shaped problems -- branch-and-bound nodes differing only in bounds
// -- reuse one arena instead of allocating fresh engine state per solve. The zero value is ready to use. A Workspace is not safe for
// concurrent use, and the X slice of a returned Solution aliases an
// internal buffer: it is valid only until the next solve on the same
// workspace (copy it to keep it).
//
// Workspace solves skip Problem.Validate for speed; callers must pass
// structurally valid problems (package-level Solve validates).
type Workspace struct {
	// Obs, when non-nil, receives per-solve counter updates (solves,
	// pivot iterations, iteration-limit hits). It is fed once per solve
	// after the pivot loop finishes -- never inside it -- so enabling
	// metrics does not touch the simplex hot path.
	Obs *obs.LPMetrics

	// ReuseBasis enables starting-basis reuse across same-shaped solves
	// (warm.go): after an optimal solve the basis is saved, and the next
	// solve of a same-shaped problem re-installs it instead of running
	// phase 1, falling back to the cold two-phase path when the basis is
	// stale. Off by default. Reuse makes a solve's pivot sequence depend
	// on the previous solve, so it must stay off on workspaces whose
	// solve order is nondeterministic (e.g. sync.Pool-shared arenas).
	ReuseBasis bool
	// BasisReuses counts solves that started from an installed basis.
	BasisReuses int

	// RefactorEvery, when > 0, forces a basis refactorization after that
	// many eta updates; 0 selects the adaptive default. Tests use 1 to
	// exercise the refactorization path on every pivot.
	RefactorEvery int
	// Factorizations and Refactorizations count basis factorizations:
	// total, and the subset triggered mid-solve by the eta-file budget or
	// a stability alarm (rather than by a warm install or crash start).
	// Budget rebuilds are routine upkeep.
	Factorizations   int
	Refactorizations int
	// RefactorAlarms counts the stability-alarm subset of
	// Refactorizations: a tiny pivot element that forced a rebuild and
	// re-price before the pivot could be trusted. A nonzero delta on a
	// solve is an anomaly signal (accumulated numerical error).
	RefactorAlarms int
	// RepairFails counts dual-repair attempts that could not restore
	// feasibility of an installed basis, forcing the cold path. A nonzero
	// delta on a solve is an anomaly signal: the reused basis was stale
	// beyond the pivot budget.
	RepairFails int

	// PricingWindow tunes partial pricing. 0 (the default) applies the
	// automatic policy: window pricing only when the priced column count
	// reaches partialPricingMinCols. A positive value forces that window
	// size whenever the priced prefix exceeds it (test and benchmark
	// hook); a negative value disables partial pricing entirely. Bland's
	// rule, when triggered, always scans the full ascending prefix:
	// anti-cycling needs the first-eligible-by-index guarantee.
	PricingWindow int
	// PartialPricingSolves counts solves in which at least one pivot was
	// priced through a partial window.
	PartialPricingSolves int

	// grow-only arenas shared by analysis and extraction.
	cols  []varCol  // per-variable column mapping
	brow  []float64 // adjusted RHS per row
	esens []Sense   // effective sense per row (after sign normalization)
	flip  []bool    // row was sign-normalized
	vals  []float64 // structural column values during extraction
	xbuf  []float64 // extracted solution

	// saved basis snapshot for ReuseBasis (warm.go).
	savedBasis                     []int
	savedAtUpper                   []bool
	savedM, savedTotal, savedNcols int
	savedOK                        bool

	// seed is a one-shot crash-basis candidate for the next solve
	// (warm.go, SeedPoint).
	seed []float64

	// shape analysis (set by analyze).
	shp      shape
	fixedCol []bool  // structural column is fixed by its bounds (rng == 0)
	price    []int32 // pricing index: enterable columns, ascending

	// sp holds the revised simplex engine state (sparse.go).
	sp sparseCore

	// blandOverride, when > 0, switches pricing to Bland's rule after
	// that many iterations of a phase (test hook; 0 keeps the default
	// 4*(m+total) threshold).
	blandOverride int
}

// shape is the column-space geometry of an analyzed problem: structural
// columns, then one slack per inequality row, then one artificial per GE
// or EQ row. Saved bases reference these column indices, which is what
// makes them portable across solves of same-shaped problems.
type shape struct {
	m, ncols, nslack, nartif, total, artbase int
}

// Solve optimizes with the default iteration limit, reusing the arena.
func (ws *Workspace) Solve(p *Problem) Solution {
	return ws.SolveMaxIters(p, defaultMax)
}

// pricingWindowFor resolves the partial-pricing window for a priced
// prefix of the given length; 0 means price the whole prefix.
func (ws *Workspace) pricingWindowFor(priced int) int {
	switch {
	case ws.PricingWindow < 0:
		return 0
	case ws.PricingWindow > 0:
		if priced > ws.PricingWindow {
			return ws.PricingWindow
		}
		return 0
	default:
		if priced >= partialPricingMinCols {
			return partialPricingWindow
		}
		return 0
	}
}

// varCol maps one original variable onto structural columns.
type varCol struct {
	col    int     // primary column index
	neg    int     // second column of a split free variable; -1 if none
	shift  float64 // lower bound (normal) or upper bound (mirror)
	mirror bool    // x = shift - x': free-below with finite upper
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// analyze computes the variable/column mapping, row normalization, and
// column-space shape of p, plus the pricing index (enterable columns;
// variables fixed by their bounds are excluded once here instead of being
// skipped by every pricing sweep). It returns false when some
// variable box is empty (lower > upper), which the caller reports as
// infeasible.
//
// allowNegRHS keeps LE rows whose (shift-adjusted) right-hand side is
// negative unflipped: the slack stays basic at a negative value instead of
// the row gaining an artificial. That start is primal infeasible, so it is
// only valid on the basis-reuse path, where the basis install overwrites
// the basis anyway and dualRepair settles feasibility -- but it makes the
// column-space SHAPE depend only on senses and variable freeness, not on
// bound values, which is what lets a branch-and-bound child (whose tightened
// bound drives an RHS negative) reuse its parent's basis. The cold path
// always builds with allowNegRHS=false, preserving the b >= 0 invariant
// the two-phase simplex relies on.
func (ws *Workspace) analyze(p *Problem, allowNegRHS bool) bool {
	n := len(p.C)
	if cap(ws.cols) < n {
		ws.cols = make([]varCol, n)
	}
	ws.cols = ws.cols[:n]
	ncols := 0
	for j := 0; j < n; j++ {
		lo, up := p.lower(j), p.upper(j)
		if up < lo-1e-12 {
			return false
		}
		vc := varCol{col: ncols, neg: -1}
		switch {
		case !math.IsInf(lo, -1):
			vc.shift = lo
			ncols++
		case !math.IsInf(up, 1):
			// Free below, capped above: mirror so x' = up - x >= 0.
			vc.mirror = true
			vc.shift = up
			ncols++
		default:
			// Fully free: split into x⁺ - x⁻.
			vc.neg = ncols + 1
			ncols += 2
		}
		ws.cols[j] = vc
	}

	m := len(p.B)
	ws.brow = growFloats(ws.brow, m)
	ws.flip = growBools(ws.flip, m)
	if cap(ws.esens) < m {
		ws.esens = make([]Sense, m)
	}
	ws.esens = ws.esens[:m]
	nslack, nartif := 0, 0
	for i := 0; i < m; i++ {
		b := p.B[i]
		// Shift contributions: x = shift + x' (normal) or shift - x'
		// (mirror) both subtract a_ij * shift from the RHS.
		if p.RowPtr != nil {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				if vc := &ws.cols[p.ColIdx[k]]; vc.neg < 0 {
					b -= p.Vals[k] * vc.shift
				}
			}
		} else {
			row := p.A[i]
			for j := 0; j < n; j++ {
				if ws.cols[j].neg < 0 {
					b -= row[j] * ws.cols[j].shift
				}
			}
		}
		s := p.Senses[i]
		// Normalize negative RHS by negating the row (except LE rows on the
		// reuse path; see the allowNegRHS doc).
		fl := b < 0 && !(allowNegRHS && s == LE)
		if fl {
			b = -b
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		ws.brow[i], ws.esens[i], ws.flip[i] = b, s, fl
		switch s {
		case LE:
			nslack++
		case GE:
			nslack++
			nartif++
		case EQ:
			nartif++
		}
	}

	total := ncols + nslack + nartif
	ws.shp = shape{m: m, ncols: ncols, nslack: nslack, nartif: nartif,
		total: total, artbase: ncols + nslack}

	// Fixed structural columns (upper == lower in shifted space, i.e.
	// rng 0) can never enter the basis; mark them so pricing skips them
	// without a per-iteration range check. Branch-and-bound bound
	// tightening fixes many variables, so at depth this prunes a large
	// slice of every Dantzig sweep.
	ws.fixedCol = growBools(ws.fixedCol, ncols)
	for c := range ws.fixedCol[:ncols] {
		ws.fixedCol[c] = false
	}
	for j := 0; j < n; j++ {
		vc := ws.cols[j]
		if vc.neg < 0 && !vc.mirror {
			if up := p.upper(j); !math.IsInf(up, 1) && up-vc.shift <= 0 {
				ws.fixedCol[vc.col] = true
			}
		}
	}
	if cap(ws.price) < total {
		ws.price = make([]int32, 0, total)
	}
	ws.price = ws.price[:0]
	for c := 0; c < total; c++ {
		if c < ncols && ws.fixedCol[c] {
			continue
		}
		ws.price = append(ws.price, int32(c))
	}
	return true
}
