package lp

import (
	"math"
	"testing"
)

// The dense bounded-variable tableau simplex, kept as a test oracle for
// the production sparse revised simplex. It implements the same pivot
// rules -- Dantzig pricing with the Bland fallback, pivot-free bound
// flips, native free variables, two phases with artificial eviction, and
// the warm-start contract (install a saved basis, dual repair, seed
// crash) -- on an explicit m x total B^-1 A tableau. The linear algebra is
// as plain as it gets, which is what makes it a trustworthy reference:
// the differential fuzzers, the cross-engine warm checks and the
// scale-set agreement test compare the sparse engine against it.
//
// The oracle runs on a Workspace's shared shape analysis (analyze) and
// saved-basis format, so a basis saved by either engine installs on the
// other.

// testCore selects the engine a test solve runs on.
type testCore int8

const (
	coreSparse testCore = iota // the production engine (Workspace.Solve)
	coreDense                  // the dense tableau oracle
)

// solveOn runs p on ws with the chosen engine and the default iteration
// limit.
func (ws *Workspace) solveOn(core testCore, p *Problem) Solution {
	if core == coreDense {
		return ws.solveDense(p, defaultMax)
	}
	return ws.Solve(p)
}

// solveCore runs one validated problem on a fresh workspace with the
// given engine.
func solveCore(t *testing.T, p *Problem, core testCore) Solution {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return (&Workspace{}).solveOn(core, p)
}

// denseOracle is the tableau engine's working state over a borrowed
// Workspace: the workspace supplies the shape analysis, the saved basis
// and the counters; the oracle owns the tableau arenas. It is rebuilt per
// solve -- the oracle is not on any allocation budget.
type denseOracle struct {
	*Workspace
	t    tableau
	abuf []float64 // m x total matrix storage
	ph1  []float64 // phase-1 objective
	red  []float64 // reduced costs
}

// tableau is the working state of the bounded-variable two-phase simplex.
// Invariants: a holds B^-1 A (updated by pivots), rhs holds the CURRENT
// basic-variable values (not B^-1 b: nonbasic variables at their upper
// bound contribute), and every nonbasic column sits at 0 or at rng[j]
// per atUpper[j] in the shifted space.
type tableau struct {
	m       int         // constraint rows
	total   int         // total columns incl. slacks/artificials
	ncols   int         // structural columns
	a       [][]float64 // m x total
	rhs     []float64   // m: basic-variable values
	rng     []float64   // per-column range upper-lower (shifted); +inf ok
	obj     []float64   // phase-2 objective per column
	basis   []int       // basic column per row
	inBasis []bool      // per-column basis membership
	atUpper []bool      // nonbasic column sits at its upper bound
	cb      []float64   // scratch: objective of basic columns
	nartif  int
	artbase int // first artificial column index
	iters   int
}

// solveDense solves p on the dense oracle with the same warm-start
// orchestration, statuses and extraction as the production engine.
func (ws *Workspace) solveDense(p *Problem, maxIters int) Solution {
	o := &denseOracle{Workspace: ws}
	// With a saved basis on hand, build shape-stably (negative LE
	// right-hand sides stay unflipped) so branch-tightened bounds cannot
	// change the tableau shape out from under the install.
	warmTry := ws.ReuseBasis && ws.savedOK
	seed := ws.seed
	ws.seed = nil
	if !o.build(p, warmTry) {
		// Bound analysis found an empty variable box: infeasible.
		if ws.Obs != nil {
			ws.Obs.Solves.Inc()
		}
		return Solution{Status: StatusInfeasible}
	}
	t := &o.t
	reused := false
	if warmTry {
		if ws.basisShapeMatches() && o.installBasis() && (t.primalFeasible() || o.dualRepair(2*t.m+16)) {
			reused = true
		} else {
			// A failed reuse leaves the tableau partially eliminated, so
			// rebuild normalized, keeping any repair pivots in the count.
			spent := t.iters
			ws.savedOK = false
			o.build(p, false)
			t.iters = spent
		}
	}
	if !reused && seed != nil && t.nartif == 0 {
		if o.crashBasis(p, seed) && (t.primalFeasible() || o.dualRepair(2*t.m+16)) {
			reused = true
		} else {
			spent := t.iters
			o.build(p, false)
			t.iters = spent
		}
	}
	var st Status
	if reused {
		ws.BasisReuses++
		st, _ = t.optimize(o, t.obj, maxIters, false)
	} else {
		st = t.solve(o, maxIters)
	}
	if ws.ReuseBasis && st == StatusOptimal {
		ws.saveBasis(t.basis, t.atUpper)
	}
	sol := Solution{Status: st, Iters: t.iters}
	if ws.Obs != nil {
		ws.Obs.Solves.Inc()
		ws.Obs.Iters.Add(int64(t.iters))
		if st == StatusIterLimit {
			ws.Obs.IterLimited.Inc()
		}
		if ws.Obs.DenseSolves != nil {
			ws.Obs.DenseSolves.Inc()
		}
	}
	if st != StatusOptimal {
		return sol
	}
	ws.xbuf = growFloats(ws.xbuf, len(p.C))
	sol.X = ws.xbuf[:len(p.C)]
	ws.vals = growFloats(ws.vals, t.ncols)
	t.extract(p, ws.cols, ws.vals[:t.ncols], sol.X)
	for j, c := range p.C {
		sol.Objective += c * sol.X[j]
	}
	return sol
}

// build assembles the dense tableau for p: shape analysis followed by
// dense materialization. Returns false when some variable box is empty.
func (o *denseOracle) build(p *Problem, allowNegRHS bool) bool {
	if !o.analyze(p, allowNegRHS) {
		return false
	}
	o.materializeDense(p)
	return true
}

// materializeDense fills the tableau from the analysis in o.shp, o.cols,
// o.brow, o.esens and o.flip, with the production engine's column
// numbering.
func (o *denseOracle) materializeDense(p *Problem) {
	n := len(p.C)
	m, ncols, total := o.shp.m, o.shp.ncols, o.shp.total
	t := &o.t
	t.m, t.total, t.ncols = m, total, ncols
	t.nartif, t.artbase = o.shp.nartif, o.shp.artbase
	t.iters = 0

	o.abuf = growFloats(o.abuf, m*total)
	for i := range o.abuf[:m*total] {
		o.abuf[i] = 0
	}
	t.a = make([][]float64, m)
	for i := 0; i < m; i++ {
		t.a[i] = o.abuf[i*total : (i+1)*total]
	}
	t.rhs = growFloats(t.rhs, m)
	t.basis = growInts(t.basis, m)
	t.cb = growFloats(t.cb, m)
	t.inBasis = growBools(t.inBasis, total)
	t.atUpper = growBools(t.atUpper, total)
	t.rng = growFloats(t.rng, total)
	t.obj = growFloats(t.obj, total)
	for j := 0; j < total; j++ {
		t.inBasis[j] = false
		t.atUpper[j] = false
		t.rng[j] = math.Inf(1)
		t.obj[j] = 0
	}
	for j := 0; j < n; j++ {
		vc := o.cols[j]
		switch {
		case vc.neg >= 0:
			t.obj[vc.col], t.obj[vc.neg] = p.C[j], -p.C[j]
		case vc.mirror:
			t.obj[vc.col] = -p.C[j]
		default:
			t.obj[vc.col] = p.C[j]
			if up := p.upper(j); !math.IsInf(up, 1) {
				r := up - vc.shift
				if r < 0 {
					r = 0 // lower ~ upper within tolerance: fixed variable
				}
				t.rng[vc.col] = r
			}
		}
	}

	set := func(ri []float64, vc varCol, c float64) {
		switch {
		case vc.neg >= 0:
			ri[vc.col] = c
			ri[vc.neg] = -c
		case vc.mirror:
			ri[vc.col] = -c
		default:
			ri[vc.col] = c
		}
	}
	slackCol, artCol := ncols, t.artbase
	for i := 0; i < m; i++ {
		sgn := 1.0
		if o.flip[i] {
			sgn = -1
		}
		ri := t.a[i]
		if p.RowPtr != nil {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				set(ri, o.cols[p.ColIdx[k]], p.Vals[k]*sgn)
			}
		} else {
			for j, v := range p.A[i] {
				set(ri, o.cols[j], v*sgn)
			}
		}
		t.rhs[i] = o.brow[i]
		switch o.esens[i] {
		case LE:
			ri[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			ri[slackCol] = -1
			slackCol++
			ri[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			ri[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.inBasis[t.basis[i]] = true
	}
	o.red = growFloats(o.red, total)
}

// solve runs phase 1 (if artificials exist) then phase 2.
func (t *tableau) solve(o *denseOracle, maxIters int) Status {
	if t.nartif > 0 {
		// Phase 1: maximize -(sum of artificials).
		o.ph1 = growFloats(o.ph1, t.total)
		ph1 := o.ph1[:t.total]
		for j := range ph1 {
			ph1[j] = 0
		}
		for j := t.artbase; j < t.total; j++ {
			ph1[j] = -1
		}
		st, objVal := t.optimize(o, ph1, maxIters, true)
		if st == StatusUnbounded {
			return StatusIterLimit // phase 1 is bounded above by 0: numeric failure
		}
		if st != StatusOptimal {
			return st
		}
		if objVal < -feasTol {
			return StatusInfeasible
		}
		t.evictArtificials()
	}
	st, _ := t.optimize(o, t.obj, maxIters, false)
	return st
}

// optimize runs simplex iterations for the given objective, returning the
// status and the achieved objective value (in shifted space). Columns at or
// beyond artbase are never allowed to enter during phase 2.
func (t *tableau) optimize(o *denseOracle, obj []float64, maxIters int, phase1 bool) (Status, float64) {
	limit := t.total
	if !phase1 {
		limit = t.artbase // artificials may not re-enter
	}
	cb := t.cb
	red := o.red
	for iter := 0; ; iter++ {
		if t.iters >= maxIters {
			return StatusIterLimit, 0
		}
		t.iters++
		for i := 0; i < t.m; i++ {
			cb[i] = obj[t.basis[i]]
		}
		// Price every column in one row-major sweep: red = c - A^T cB
		// (the tableau columns hold B^-1 A, so this is the reduced cost).
		copy(red[:limit], obj[:limit])
		for i := 0; i < t.m; i++ {
			c := cb[i]
			if c == 0 {
				continue
			}
			ri := t.a[i][:limit]
			rd := red[:len(ri)]
			for j, v := range ri {
				rd[j] -= c * v
			}
		}
		// Entering column: Dantzig normally, Bland (first eligible in the
		// ascending pricing index) once the phase runs long.
		blandAfter := 4 * (t.m + t.total)
		if o.blandOverride > 0 {
			blandAfter = o.blandOverride
		}
		bland := iter > blandAfter
		enter := -1
		dir := 1.0
		best := eps
		for _, j32 := range o.price {
			j := int(j32)
			if j >= limit {
				break
			}
			if t.inBasis[j] {
				continue
			}
			r := red[j]
			if t.atUpper[j] {
				r = -r
			}
			if r > best {
				enter = j
				dir = 1
				if t.atUpper[j] {
					dir = -1
				}
				if bland {
					break
				}
				best = r
			}
		}
		if enter < 0 {
			return StatusOptimal, t.objValue(obj)
		}
		// Ratio test along direction dir, with the entering variable's own
		// opposite bound as the bound-flip candidate.
		step := t.rng[enter]
		fl := !math.IsInf(step, 1)
		leave, leaveAtUpper := -1, false
		for i := 0; i < t.m; i++ {
			w := dir * t.a[i][enter]
			var r float64
			var hitUpper bool
			if w > eps {
				r = t.rhs[i] / w
			} else if w < -eps {
				ub := t.rng[t.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				r = (ub - t.rhs[i]) / -w
				hitUpper = true
			} else {
				continue
			}
			if r < step-eps || (r < step+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				step = r
				leave = i
				leaveAtUpper = hitUpper
				fl = false
			}
		}
		if leave < 0 && !fl {
			return StatusUnbounded, 0
		}
		if step < 0 {
			step = 0 // degenerate: clamp numerical noise
		}
		if fl {
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= step * dir * t.a[i][enter]
			}
			t.atUpper[enter] = !t.atUpper[enter]
			continue
		}
		t.pivot(leave, enter, dir, step, leaveAtUpper)
	}
}

// objValue computes the current objective in shifted space: basic values
// plus nonbasic-at-upper contributions.
func (t *tableau) objValue(obj []float64) float64 {
	val := 0.0
	for i := 0; i < t.m; i++ {
		val += obj[t.basis[i]] * t.rhs[i]
	}
	for j := 0; j < t.total; j++ {
		if t.atUpper[j] && !t.inBasis[j] {
			val += obj[j] * t.rng[j]
		}
	}
	return val
}

// pivot moves the entering column into the basis at row `row`, with the
// entering variable having travelled `step` from its current bound in
// direction `dir`; the leaving variable exits at its lower bound, or at
// its upper bound when leaveAtUpper is set. Then Gauss-Jordan elimination.
func (t *tableau) pivot(row, col int, dir, step float64, leaveAtUpper bool) {
	for i := 0; i < t.m; i++ {
		if i != row {
			t.rhs[i] -= step * dir * t.a[i][col]
		}
	}
	if dir > 0 {
		t.rhs[row] = step
	} else {
		t.rhs[row] = t.rng[col] - step
	}
	lv := t.basis[row]
	t.atUpper[lv] = leaveAtUpper
	t.eliminate(row, col)
	t.inBasis[lv] = false
	t.basis[row] = col
	t.inBasis[col] = true
	t.atUpper[col] = false
}

// eliminate scales row `row` to a unit pivot at column col and clears col
// from every other row. rhs is not touched: it holds basic values, which
// callers maintain themselves.
func (t *tableau) eliminate(row, col int) {
	pr := t.a[row][:t.total]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i][:len(pr)]
		for j, v := range pr {
			ri[j] -= f * v
		}
	}
}

// eliminateWithRHS is eliminate for a tableau whose rhs still holds
// B^-1 b (basis installs and crash starts): rhs is transformed alongside.
func (t *tableau) eliminateWithRHS(row, col int) {
	inv := 1 / t.a[row][col]
	t.rhs[row] *= inv
	for i := 0; i < t.m; i++ {
		if i != row {
			t.rhs[i] -= t.a[i][col] * t.rhs[row]
		}
	}
	t.eliminate(row, col)
}

// evictArtificials pivots basic artificial variables (at value ~0 after a
// feasible phase 1) out of the basis when a non-artificial pivot exists.
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artbase {
			continue
		}
		for j := 0; j < t.artbase; j++ {
			if !t.inBasis[j] && math.Abs(t.a[i][j]) > eps {
				dir := 1.0
				if t.atUpper[j] {
					dir = -1
				}
				t.pivot(i, j, dir, 0, false)
				break
			}
		}
	}
}

// extract recovers the original-space variable values into x, using vals
// (len ncols) as scratch for per-column values in shifted space.
func (t *tableau) extract(p *Problem, cols []varCol, vals, x []float64) {
	for c := range vals {
		if t.atUpper[c] {
			vals[c] = t.rng[c]
		} else {
			vals[c] = 0
		}
	}
	for i, b := range t.basis {
		if b < t.ncols {
			vals[b] = t.rhs[i]
		}
	}
	for j := range x {
		vc := cols[j]
		switch {
		case vc.neg >= 0:
			x[j] = vals[vc.col] - vals[vc.neg]
		case vc.mirror:
			x[j] = vc.shift - vals[vc.col]
		default:
			x[j] = vc.shift + vals[vc.col]
		}
		if lo := p.lower(j); x[j] < lo {
			x[j] = lo
		}
		if ub := p.upper(j); x[j] > ub {
			x[j] = ub
		}
	}
}

// crashBasis turns the freshly built identity tableau into a basis at the
// vertex of the seed point: every variable strictly inside its bounds is
// pivoted into the basis (evicting a slack), and every variable at its
// finite upper bound is anchored there. Requires nartif == 0. Returns
// false when the seed needs a configuration elimination cannot reach.
func (o *denseOracle) crashBasis(p *Problem, x []float64) bool {
	t := &o.t
	n := len(p.C)
	if len(x) != n {
		return false
	}
	for j := 0; j < n; j++ {
		vc := o.cols[j]
		if vc.neg >= 0 {
			return false // split free variable: no single column to seed
		}
		v := x[j] - vc.shift
		if vc.mirror {
			v = vc.shift - x[j]
		}
		rng := t.rng[vc.col]
		switch {
		case v <= installTol:
			// at lower bound: nonbasic, nothing to do
		case !math.IsInf(rng, 1) && v >= rng-installTol:
			t.atUpper[vc.col] = true
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= rng * t.a[i][vc.col]
			}
		default:
			// Strictly interior: claim the unclaimed row with the largest
			// pivot.
			c := vc.col
			pr, pv := -1, installTol
			for i := 0; i < t.m; i++ {
				if t.basis[i] < t.ncols {
					continue // claimed by an earlier seed variable
				}
				if a := math.Abs(t.a[i][c]); a > pv {
					pr, pv = i, a
				}
			}
			if pr < 0 {
				return false
			}
			t.eliminateWithRHS(pr, c)
			t.inBasis[t.basis[pr]] = false
			t.basis[pr] = c
			t.inBasis[c] = true
			t.atUpper[c] = false
		}
	}
	return true
}

// installBasis transforms the freshly built identity tableau into the
// saved basis by Gauss-Jordan elimination and re-anchors the saved
// nonbasic-at-upper columns. Returns false when the saved basis is
// singular for the new matrix.
func (o *denseOracle) installBasis() bool {
	t := &o.t
	m := t.m
	for i := 0; i < m; i++ {
		c := o.savedBasis[i]
		pr, pv := -1, installTol
		for r := i; r < m; r++ {
			if a := math.Abs(t.a[r][c]); a > pv {
				pr, pv = r, a
			}
		}
		if pr < 0 {
			return false // singular for the new matrix
		}
		if pr != i {
			t.a[i], t.a[pr] = t.a[pr], t.a[i]
			t.rhs[i], t.rhs[pr] = t.rhs[pr], t.rhs[i]
		}
		t.eliminateWithRHS(i, c)
	}
	for j := 0; j < t.total; j++ {
		t.inBasis[j] = false
		t.atUpper[j] = false
	}
	for i := 0; i < m; i++ {
		t.basis[i] = o.savedBasis[i]
		t.inBasis[t.basis[i]] = true
	}
	for j := 0; j < t.total; j++ {
		if !o.savedAtUpper[j] || t.inBasis[j] {
			continue
		}
		r := t.rng[j]
		if math.IsInf(r, 1) || r <= 0 {
			continue
		}
		t.atUpper[j] = true
		for i := 0; i < m; i++ {
			t.rhs[i] -= r * t.a[i][j]
		}
	}
	return true
}

// primalFeasible reports whether every basic value lies inside its
// column's range.
func (t *tableau) primalFeasible() bool {
	for i := 0; i < t.m; i++ {
		v := t.rhs[i]
		if v < -installTol {
			return false
		}
		if rb := t.rng[t.basis[i]]; v > rb+installTol {
			return false
		}
	}
	return true
}

// dualRepair restores primal feasibility of an installed basis with
// bounded-variable dual-simplex pivots, counting failures in RepairFails
// like the production engine.
func (o *denseOracle) dualRepair(maxPivots int) bool {
	if !o.dualRepairRun(maxPivots) {
		o.RepairFails++
		return false
	}
	return true
}

func (o *denseOracle) dualRepairRun(maxPivots int) bool {
	t := &o.t
	obj := t.obj
	limit := t.artbase // phase-2 discipline: artificials may not enter
	cb := t.cb
	red := o.red
	for pivots := 0; pivots < maxPivots; pivots++ {
		// Most-violated basic variable: below zero or above its range.
		r, atUp, viol := -1, false, installTol
		for i := 0; i < t.m; i++ {
			v := t.rhs[i]
			if d := -v; d > viol {
				r, atUp, viol = i, false, d
			}
			if ub := t.rng[t.basis[i]]; !math.IsInf(ub, 1) {
				if d := v - ub; d > viol {
					r, atUp, viol = i, true, d
				}
			}
		}
		if r < 0 {
			return true
		}
		for i := 0; i < t.m; i++ {
			cb[i] = obj[t.basis[i]]
		}
		copy(red[:limit], obj[:limit])
		for i := 0; i < t.m; i++ {
			c := cb[i]
			if c == 0 {
				continue
			}
			ri := t.a[i][:limit]
			rd := red[:len(ri)]
			for j, v := range ri {
				rd[j] -= c * v
			}
		}
		// Entering column: moving it must push the leaving basic toward
		// the violated bound; minimum dual ratio, ties to the larger pivot.
		enter, bestRatio, bestW := -1, math.Inf(1), 0.0
		for _, j32 := range o.price {
			j := int(j32)
			if j >= limit {
				break
			}
			if t.inBasis[j] {
				continue
			}
			dirj := 1.0
			if t.atUpper[j] {
				dirj = -1
			}
			w := dirj * t.a[r][j]
			if atUp {
				if w < eps {
					continue
				}
			} else if w > -eps {
				continue
			}
			rr := red[j]
			if t.atUpper[j] {
				rr = -rr
			}
			ratio := -rr / math.Abs(w)
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && math.Abs(w) > math.Abs(bestW)) {
				enter, bestRatio, bestW = j, ratio, w
			}
		}
		if enter < 0 {
			return false
		}
		dir := 1.0
		if t.atUpper[enter] {
			dir = -1
		}
		var step float64
		if atUp {
			step = (t.rhs[r] - t.rng[t.basis[r]]) / (dir * t.a[r][enter])
		} else {
			step = t.rhs[r] / (dir * t.a[r][enter])
		}
		if step < 0 {
			step = 0
		}
		if rj := t.rng[enter]; step > rj {
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= rj * dir * t.a[i][enter]
			}
			t.atUpper[enter] = !t.atUpper[enter]
			t.iters++
			continue
		}
		t.pivot(r, enter, dir, step, atUp)
		t.iters++
	}
	return t.primalFeasible()
}

// TestScaleSetAgreement is the at-scale differential: every instance of
// the quick benchlp set (sched- and cover-shaped, ~500-2300 variables)
// must reach one optimum on the production engine and the dense oracle,
// to 1e-6. The unit fuzzers cover only small instances. The oracle's
// dense pivots take seconds here and minutes under the race detector, so
// the test skips in -short and -race runs; make bench-scale-smoke runs it
// in CI.
func TestScaleSetAgreement(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("dense oracle scale-set solves are slow in -short/-race runs")
	}
	for _, inst := range ScaleInstances(true) {
		t.Run(inst.Name, func(t *testing.T) {
			s := requireAgree(t, inst.Gen())
			if s.Status != StatusOptimal {
				t.Fatalf("status %v", s.Status)
			}
		})
	}
}
