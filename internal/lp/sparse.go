package lp

import "math"

// Sparse revised simplex engine: Dantzig pricing with the Bland fallback,
// implicit bounded variables with pivot-free bound flips, native free
// variables, two phases with artificial eviction, and the warm-start
// contract (install saved basis, dual repair, seed crash). It holds the
// constraint matrix as immutable CSC columns and the basis inverse as an
// eta file (factor.go). Per iteration it does one BTRAN for the pricing
// multipliers, one O(nnz) reduced-cost sweep over sparse columns, and one
// sparse FTRAN of the entering column, so work scales with the nonzero
// count rather than m*n. The eta file grows by one eta per pivot and is
// rebuilt (refactorized) when the update budget runs out -- routine
// upkeep -- or when a pivot value looks numerically degraded, which is
// counted separately as a stability alarm.

// sparseCore is the engine state held by every Workspace. All slices are
// grow-only arenas: steady-state re-solves (branch-and-bound nodes,
// per-frame models) allocate nothing.
type sparseCore struct {
	m, total, ncols, artbase, nartif int

	// CSC of the full shifted column space: structural columns (sign-
	// adjusted for row flips and mirror/split variables), then slacks,
	// then artificials -- the numbering of Workspace.shp, which saved
	// bases reference.
	colPtr []int32
	rowIdx []int32
	vals   []float64

	obj []float64 // phase-2 objective per column
	rng []float64 // per-column range upper-lower (shifted); +inf ok
	ph1 []float64 // phase-1 objective

	basis   []int  // basic column per row
	inBasis []bool // per-column basis membership
	atUpper []bool // nonbasic column sits at its upper bound
	xB      []float64

	eta        etaFile
	etasAtFact int // eta count right after the last factorization

	// tracked sparse work vector (FTRAN target) and dense BTRAN/scratch
	// vectors.
	w    []float64
	mark []bool
	wIdx []int32
	y    []float64
	rhs  []float64

	// factorization scratch (factor.go).
	claimed, placedF                                         []bool
	rowColsPtr, rowCols, act, queue, order, pivRowOf, colCnt []int32
	bucket, cnt                                              []int32
	basisTmp                                                 []int

	iters int

	// partial-pricing state: rotating cursor into the priced prefix of
	// ws.price, and whether any pivot of the current solve was priced
	// through a window (feeds Workspace.PartialPricingSolves).
	priceCursor int
	usedPartial bool

	// per-solve stats, accumulated into the Workspace counters.
	factorizations, refactorizations, alarms, fillIn int
}

// SolveMaxIters optimizes with an explicit simplex iteration limit,
// reusing the arena: warm-start attempts (saved basis, then seed point),
// the two-phase simplex when neither applies, counter updates and
// solution extraction. See the Workspace doc for aliasing and validation
// caveats.
func (ws *Workspace) SolveMaxIters(p *Problem, maxIters int) Solution {
	warmTry := ws.ReuseBasis && ws.savedOK
	seed := ws.seed
	ws.seed = nil
	if !ws.analyze(p, warmTry) {
		if ws.Obs != nil {
			ws.Obs.Solves.Inc()
		}
		return Solution{Status: StatusInfeasible}
	}
	sp := &ws.sp
	sp.factorizations, sp.refactorizations, sp.alarms, sp.fillIn = 0, 0, 0, 0
	sp.materialize(ws, p)
	reused := false
	if warmTry {
		if ws.basisShapeMatches() && sp.installSaved(ws) && (sp.primalFeasible() || sp.dualRepair(ws, 2*sp.m+16)) {
			reused = true
		} else {
			// A failed reuse (shape drift, singular basis, or
			// infeasibility the dual repair could not fix) leaves the
			// engine unusable -- partially installed basis, possibly
			// negative right-hand sides -- so re-analyze normalized and
			// rebuild, keeping repair pivots in the count. Stale bases
			// rarely recover, so drop the snapshot rather than retry it
			// every solve.
			spent := sp.iters
			ws.savedOK = false
			ws.analyze(p, false)
			sp.materialize(ws, p)
			sp.iters = spent
		}
	}
	if !reused && seed != nil && ws.shp.nartif == 0 {
		// No previous basis applies, but the caller supplied a feasible
		// point: crash a basis at its vertex and go straight to phase 2.
		if sp.crashSeed(ws, p, seed) && (sp.primalFeasible() || sp.dualRepair(ws, 2*sp.m+16)) {
			reused = true
		} else {
			spent := sp.iters
			ws.analyze(p, false)
			sp.materialize(ws, p)
			sp.iters = spent
		}
	}
	var st Status
	if reused {
		ws.BasisReuses++
		st, _ = sp.optimize(ws, sp.obj, maxIters, false)
	} else {
		st = sp.twoPhase(ws, maxIters)
	}
	if ws.ReuseBasis && st == StatusOptimal {
		ws.saveBasis(sp.basis, sp.atUpper)
	}
	ws.Factorizations += sp.factorizations
	ws.Refactorizations += sp.refactorizations
	ws.RefactorAlarms += sp.alarms
	if sp.usedPartial {
		ws.PartialPricingSolves++
	}
	sol := Solution{Status: st, Iters: sp.iters}
	if ws.Obs != nil {
		ws.Obs.Solves.Inc()
		ws.Obs.Iters.Add(int64(sp.iters))
		if st == StatusIterLimit {
			ws.Obs.IterLimited.Inc()
		}
		if ws.Obs.SparseSolves != nil {
			ws.Obs.SparseSolves.Inc()
		}
		if ws.Obs.Factorizations != nil {
			ws.Obs.Factorizations.Add(int64(sp.factorizations))
		}
		if ws.Obs.Refactorizations != nil {
			ws.Obs.Refactorizations.Add(int64(sp.refactorizations))
		}
		if ws.Obs.FillIn != nil {
			ws.Obs.FillIn.Add(int64(sp.fillIn))
		}
		if ws.Obs.InstanceNNZ != nil {
			ws.Obs.InstanceNNZ.SetMax(float64(p.NNZ()))
		}
		if sp.usedPartial && ws.Obs.PartialPricing != nil {
			ws.Obs.PartialPricing.Inc()
		}
	}
	if st != StatusOptimal {
		return sol
	}
	ws.xbuf = growFloats(ws.xbuf, len(p.C))
	sol.X = ws.xbuf[:len(p.C)]
	ws.vals = growFloats(ws.vals, sp.ncols)
	sp.extract(p, ws.cols, ws.vals[:sp.ncols], sol.X)
	for j, c := range p.C {
		sol.Objective += c * sol.X[j]
	}
	return sol
}

// materialize assembles the CSC matrix, bounds, objective and initial
// identity basis (slack/artificial per row) from the shape analysis in
// the workspace.
func (sp *sparseCore) materialize(ws *Workspace, p *Problem) {
	s := &ws.shp
	n := len(p.C)
	m, ncols, total := s.m, s.ncols, s.total
	sp.m, sp.total, sp.ncols = m, total, ncols
	sp.artbase, sp.nartif = s.artbase, s.nartif
	sp.iters = 0
	sp.priceCursor = 0
	sp.usedPartial = false

	// Count entries per CSC column, then prefix-sum and fill. Zero
	// coefficients are dropped.
	sp.cnt = growInt32s(sp.cnt, total)
	cnt := sp.cnt[:total]
	for c := range cnt {
		cnt[c] = 0
	}
	if p.RowPtr != nil {
		for k, j := range p.ColIdx {
			if p.Vals[k] == 0 {
				continue
			}
			vc := ws.cols[j]
			cnt[vc.col]++
			if vc.neg >= 0 {
				cnt[vc.neg]++
			}
		}
	} else {
		for i := 0; i < m; i++ {
			for j, v := range p.A[i] {
				if v == 0 {
					continue
				}
				vc := ws.cols[j]
				cnt[vc.col]++
				if vc.neg >= 0 {
					cnt[vc.neg]++
				}
			}
		}
	}
	for c := ncols; c < total; c++ {
		cnt[c]++ // slacks and artificials: one entry each
	}
	sp.colPtr = growInt32s(sp.colPtr, total+1)
	colPtr := sp.colPtr[:total+1]
	colPtr[0] = 0
	for c := 0; c < total; c++ {
		colPtr[c+1] = colPtr[c] + cnt[c]
	}
	nnz := int(colPtr[total])
	sp.rowIdx = growInt32s(sp.rowIdx, nnz)
	sp.vals = growFloats(sp.vals, nnz)
	copy(cnt, colPtr[:total]) // reuse as per-column write cursor

	sp.basis = growInts(sp.basis, m)
	sp.inBasis = growBools(sp.inBasis, total)
	sp.atUpper = growBools(sp.atUpper, total)
	for j := 0; j < total; j++ {
		sp.inBasis[j] = false
		sp.atUpper[j] = false
	}
	sp.xB = growFloats(sp.xB, m)

	slackCol, artCol := ncols, s.artbase
	for i := 0; i < m; i++ {
		sgn := 1.0
		if ws.flip[i] {
			sgn = -1
		}
		if p.RowPtr != nil {
			for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
				if p.Vals[k] == 0 {
					continue
				}
				sp.emit(ws.cols[p.ColIdx[k]], int32(i), p.Vals[k]*sgn, cnt)
			}
		} else {
			for j, v := range p.A[i] {
				if v == 0 {
					continue
				}
				sp.emit(ws.cols[j], int32(i), v*sgn, cnt)
			}
		}
		switch ws.esens[i] {
		case LE:
			sp.emitAt(slackCol, int32(i), 1, cnt)
			sp.basis[i] = slackCol
			slackCol++
		case GE:
			sp.emitAt(slackCol, int32(i), -1, cnt)
			slackCol++
			sp.emitAt(artCol, int32(i), 1, cnt)
			sp.basis[i] = artCol
			artCol++
		case EQ:
			sp.emitAt(artCol, int32(i), 1, cnt)
			sp.basis[i] = artCol
			artCol++
		}
		sp.inBasis[sp.basis[i]] = true
		sp.xB[i] = ws.brow[i]
	}

	sp.obj = growFloats(sp.obj, total)
	sp.rng = growFloats(sp.rng, total)
	for j := 0; j < total; j++ {
		sp.obj[j] = 0
		sp.rng[j] = math.Inf(1)
	}
	for j := 0; j < n; j++ {
		vc := ws.cols[j]
		switch {
		case vc.neg >= 0:
			sp.obj[vc.col], sp.obj[vc.neg] = p.C[j], -p.C[j]
		case vc.mirror:
			sp.obj[vc.col] = -p.C[j]
		default:
			sp.obj[vc.col] = p.C[j]
			if up := p.upper(j); !math.IsInf(up, 1) {
				r := up - vc.shift
				if r < 0 {
					r = 0
				}
				sp.rng[vc.col] = r
			}
		}
	}

	sp.w = growFloats(sp.w, m)
	sp.mark = growBools(sp.mark, m)
	for i := 0; i < m; i++ {
		sp.w[i] = 0
		sp.mark[i] = false
	}
	sp.y = growFloats(sp.y, m)
	sp.rhs = growFloats(sp.rhs, m)
	if cap(sp.wIdx) < m {
		sp.wIdx = make([]int32, 0, m)
	}
	sp.eta.reset()
	sp.etasAtFact = 0
}

// emit scatters one structural coefficient through the variable mapping.
func (sp *sparseCore) emit(vc varCol, i int32, c float64, cur []int32) {
	if vc.neg >= 0 {
		sp.emitAt(vc.col, i, c, cur)
		sp.emitAt(vc.neg, i, -c, cur)
	} else if vc.mirror {
		sp.emitAt(vc.col, i, -c, cur)
	} else {
		sp.emitAt(vc.col, i, c, cur)
	}
}

func (sp *sparseCore) emitAt(col int, i int32, v float64, cur []int32) {
	q := cur[col]
	cur[col]++
	sp.rowIdx[q] = i
	sp.vals[q] = v
}

// twoPhase runs phase 1 (maximize minus the sum of artificials) when
// artificials exist, then phase 2.
func (sp *sparseCore) twoPhase(ws *Workspace, maxIters int) Status {
	if sp.nartif > 0 {
		sp.ph1 = growFloats(sp.ph1, sp.total)
		ph1 := sp.ph1[:sp.total]
		for j := range ph1 {
			ph1[j] = 0
		}
		for j := sp.artbase; j < sp.total; j++ {
			ph1[j] = -1
		}
		st, objVal := sp.optimize(ws, ph1, maxIters, true)
		if st == StatusUnbounded {
			return StatusIterLimit // phase 1 is bounded above by 0: numeric failure
		}
		if st != StatusOptimal {
			return st
		}
		if objVal < -feasTol {
			return StatusInfeasible
		}
		sp.evictArtificials()
	}
	st, _ := sp.optimize(ws, sp.obj, maxIters, false)
	return st
}

// optimize runs revised-simplex iterations for the given objective,
// returning the status and the achieved objective value (in shifted
// space). Entering columns are chosen by Dantzig pricing, switching to
// Bland's rule (first eligible in the ascending pricing index) once a
// phase runs long; the ratio test breaks ties toward the lowest basic
// column index, and an entering column that reaches its own opposite
// bound first flips without a pivot. Columns at or beyond artbase never
// enter in phase 2.
func (sp *sparseCore) optimize(ws *Workspace, obj []float64, maxIters int, phase1 bool) (Status, float64) {
	limit := sp.total
	if !phase1 {
		limit = sp.artbase // artificials may not re-enter
	}
	// Priced prefix of ws.price: the index is ascending, so the phase's
	// column limit is a binary-searched cut, not a per-entry check.
	lo, hi := 0, len(ws.price)
	for lo < hi {
		mid := (lo + hi) >> 1
		if int(ws.price[mid]) < limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	priced := lo
	window := ws.pricingWindowFor(priced)
	m := sp.m
	y := sp.y[:m]
	justRefactored := false
	for iter := 0; ; iter++ {
		if sp.iters >= maxIters {
			return StatusIterLimit, 0
		}
		sp.iters++
		// Pricing multipliers y = B^-T c_B, then reduced costs per
		// column d_j = c_j - y . a_j over the sparse columns.
		for i := 0; i < m; i++ {
			y[i] = obj[sp.basis[i]]
		}
		sp.eta.btran(y)
		blandAfter := 4 * (m + sp.total)
		if ws.blandOverride > 0 {
			blandAfter = ws.blandOverride
		}
		bland := iter > blandAfter
		enter := -1
		dir := 1.0
		best := eps
		if bland || window <= 0 || priced <= window || iter%partialFullSweepPeriod == 0 {
			// Full Dantzig sweep (and always under Bland: anti-cycling
			// requires first-eligible in ascending column order).
			for _, j32 := range ws.price[:priced] {
				j := int(j32)
				if sp.inBasis[j] {
					continue
				}
				d := obj[j]
				for q := sp.colPtr[j]; q < sp.colPtr[j+1]; q++ {
					d -= sp.vals[q] * y[sp.rowIdx[q]]
				}
				r := d
				if sp.atUpper[j] {
					r = -d
				}
				if r > best {
					enter = j
					dir = 1
					if sp.atUpper[j] {
						dir = -1
					}
					if bland {
						break
					}
					best = r
				}
			}
		} else {
			// Partial pricing: Dantzig-best within a window-sized chunk
			// of the rotating cursor, extending chunk by chunk while
			// nothing is eligible. A full empty rotation prices every
			// column, so enter < 0 remains a valid optimality
			// certificate.
			sp.usedPartial = true
			start := sp.priceCursor
			if start >= priced {
				start = 0
			}
			scanned := 0
			for scanned < priced {
				chunk := window
				if rem := priced - scanned; chunk > rem {
					chunk = rem
				}
				for k := 0; k < chunk; k++ {
					pos := start + scanned + k
					if pos >= priced {
						pos -= priced
					}
					j := int(ws.price[pos])
					if sp.inBasis[j] {
						continue
					}
					d := obj[j]
					for q := sp.colPtr[j]; q < sp.colPtr[j+1]; q++ {
						d -= sp.vals[q] * y[sp.rowIdx[q]]
					}
					r := d
					if sp.atUpper[j] {
						r = -d
					}
					if r > best {
						enter = j
						dir = 1
						if sp.atUpper[j] {
							dir = -1
						}
						best = r
					}
				}
				scanned += chunk
				if enter >= 0 {
					cur := start + scanned
					if cur >= priced {
						cur -= priced
					}
					sp.priceCursor = cur
					break
				}
			}
		}
		if enter < 0 {
			return StatusOptimal, sp.objValue(obj)
		}
		// w = B^-1 a_enter, tracked for the sparse ratio test.
		idx := sp.scatterColumn(enter)
		idx = sp.ftranTracked(idx)
		step := sp.rng[enter]
		fl := !math.IsInf(step, 1)
		leave, leaveAtUpper := -1, false
		for _, i32 := range idx {
			i := int(i32)
			w := dir * sp.w[i]
			var r float64
			var hitUpper bool
			if w > eps {
				r = sp.xB[i] / w
			} else if w < -eps {
				ub := sp.rng[sp.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				r = (ub - sp.xB[i]) / -w
				hitUpper = true
			} else {
				continue
			}
			if r < step-eps || (r < step+eps && (leave < 0 || sp.basis[i] < sp.basis[leave])) {
				step = r
				leave = i
				leaveAtUpper = hitUpper
				fl = false
			}
		}
		if leave < 0 && !fl {
			sp.clearW(idx)
			return StatusUnbounded, 0
		}
		if step < 0 {
			step = 0 // degenerate: clamp numerical noise
		}
		if fl {
			// Bound flip: basis unchanged, basic values shift.
			for _, i32 := range idx {
				i := int(i32)
				sp.xB[i] -= step * dir * sp.w[i]
			}
			sp.atUpper[enter] = !sp.atUpper[enter]
			sp.clearW(idx)
			continue
		}
		// A tiny pivot through a long eta file is usually accumulated
		// error, not geometry: refactorize once and re-price before
		// trusting it. This is the stability alarm, unlike the routine
		// budget rebuild below.
		if !justRefactored && math.Abs(sp.w[leave]) < installTol && sp.eta.count() > sp.etasAtFact {
			sp.clearW(idx)
			sp.alarms++
			if !sp.refactorize(ws, eps) {
				return StatusIterLimit, 0
			}
			justRefactored = true
			continue
		}
		justRefactored = false
		sp.pivot(leave, enter, dir, step, leaveAtUpper, idx)
		if sp.eta.count()-sp.etasAtFact >= sp.refactorBudget(ws) {
			if !sp.refactorize(ws, eps) {
				return StatusIterLimit, 0
			}
		}
	}
}

// pivot applies the basis change at `row` for entering column `col`:
// update basic values along w, append one update eta, swap the
// bookkeeping. The entering variable has travelled `step` from its
// current bound in direction `dir`; the leaving variable exits at its
// lower bound, or at its upper bound when leaveAtUpper is set.
func (sp *sparseCore) pivot(row, col int, dir, step float64, leaveAtUpper bool, idx []int32) {
	for _, i32 := range idx {
		i := int(i32)
		if i != row {
			sp.xB[i] -= step * dir * sp.w[i]
		}
	}
	if dir > 0 {
		sp.xB[row] = step // entered rising from its lower bound
	} else {
		sp.xB[row] = sp.rng[col] - step // entered falling from its upper bound
	}
	lv := sp.basis[row]
	sp.atUpper[lv] = leaveAtUpper
	sp.eta.appendEta(sp.w, idx, int32(row))
	sp.inBasis[lv] = false
	sp.basis[row] = col
	sp.inBasis[col] = true
	sp.atUpper[col] = false
	sp.clearW(idx)
}

// refactorBudget is the eta-update count that triggers a rebuild. The
// default scales with m: long enough to amortize the factorization, short
// enough that FTRAN/BTRAN stay cheap and error stays bounded.
func (sp *sparseCore) refactorBudget(ws *Workspace) int {
	if ws.RefactorEvery > 0 {
		return ws.RefactorEvery
	}
	b := sp.m / 2
	if b < 16 {
		b = 16
	} else if b > 128 {
		b = 128
	}
	return b
}

// refactorize rebuilds the eta file from the current basis and recomputes
// the basic values from scratch (dropping accumulated update error).
func (sp *sparseCore) refactorize(ws *Workspace, tol float64) bool {
	sp.refactorizations++
	if !sp.factorizeBasis(tol) {
		return false
	}
	sp.computeXB(ws)
	return true
}

// computeXB recomputes basic values from first principles:
// xB = B^-1 (b - sum over nonbasic-at-upper columns of rng_j * a_j).
func (sp *sparseCore) computeXB(ws *Workspace) {
	m := sp.m
	rhs := sp.rhs[:m]
	copy(rhs, ws.brow[:m])
	for j := 0; j < sp.total; j++ {
		if !sp.atUpper[j] || sp.inBasis[j] {
			continue
		}
		r := sp.rng[j]
		if r == 0 || math.IsInf(r, 1) {
			continue
		}
		for q := sp.colPtr[j]; q < sp.colPtr[j+1]; q++ {
			rhs[sp.rowIdx[q]] -= r * sp.vals[q]
		}
	}
	sp.eta.ftran(rhs)
	copy(sp.xB[:m], rhs)
}

// objValue computes the current objective in shifted space: basic values
// plus nonbasic-at-upper contributions.
func (sp *sparseCore) objValue(obj []float64) float64 {
	val := 0.0
	for i := 0; i < sp.m; i++ {
		val += obj[sp.basis[i]] * sp.xB[i]
	}
	for j := 0; j < sp.total; j++ {
		if sp.atUpper[j] && !sp.inBasis[j] {
			val += obj[j] * sp.rng[j]
		}
	}
	return val
}

// evictArtificials pivots leftover basic artificials (value ~0 after a
// feasible phase 1) out of the basis when any non-artificial pivot
// exists: row i of B^-1 (one BTRAN of a unit vector) prices the
// candidate pivots, and the first eligible column by index is pivoted in
// with a zero step.
func (sp *sparseCore) evictArtificials() {
	m := sp.m
	rho := sp.rhs[:m]
	for i := 0; i < m; i++ {
		if sp.basis[i] < sp.artbase {
			continue
		}
		for r := range rho {
			rho[r] = 0
		}
		rho[i] = 1
		sp.eta.btran(rho)
		for j := 0; j < sp.artbase; j++ {
			if sp.inBasis[j] {
				continue
			}
			alpha := 0.0
			for q := sp.colPtr[j]; q < sp.colPtr[j+1]; q++ {
				alpha += sp.vals[q] * rho[sp.rowIdx[q]]
			}
			if math.Abs(alpha) > eps {
				dir := 1.0
				if sp.atUpper[j] {
					dir = -1
				}
				idx := sp.scatterColumn(j)
				idx = sp.ftranTracked(idx)
				sp.pivot(i, j, dir, 0, false, idx)
				break
			}
		}
	}
}

// extract recovers the original-space variable values into x, using vals
// (len ncols) as scratch for per-column values in shifted space, and
// snaps them to their bounds to suppress simplex noise.
func (sp *sparseCore) extract(p *Problem, cols []varCol, vals, x []float64) {
	for c := range vals {
		if sp.atUpper[c] {
			vals[c] = sp.rng[c]
		} else {
			vals[c] = 0
		}
	}
	for i, b := range sp.basis[:sp.m] {
		if b < sp.ncols {
			vals[b] = sp.xB[i]
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

// primalFeasible reports whether every basic value lies inside its
// column's range.
func (sp *sparseCore) primalFeasible() bool {
	for i := 0; i < sp.m; i++ {
		v := sp.xB[i]
		if v < -installTol {
			return false
		}
		if rb := sp.rng[sp.basis[i]]; v > rb+installTol {
			return false
		}
	}
	return true
}

// installSaved realizes a saved basis on the sparse core: set membership,
// one basis factorization, re-anchor the saved nonbasic-at-upper columns,
// recompute basic values. Returns false when the saved basis is singular
// for the new matrix; the caller rebuilds and goes cold.
func (sp *sparseCore) installSaved(ws *Workspace) bool {
	m := sp.m
	copy(sp.basis[:m], ws.savedBasis[:m])
	for j := 0; j < sp.total; j++ {
		sp.inBasis[j] = false
		sp.atUpper[j] = false
	}
	for i := 0; i < m; i++ {
		sp.inBasis[sp.basis[i]] = true
	}
	if !sp.factorizeBasis(installTol) {
		return false
	}
	// Re-anchor nonbasic columns that sat at their upper bound; a column
	// whose range became infinite or collapsed stays at its lower bound
	// (the caller's feasibility check decides whether the basis
	// survives).
	for j := 0; j < sp.total; j++ {
		if !ws.savedAtUpper[j] || sp.inBasis[j] {
			continue
		}
		r := sp.rng[j]
		if math.IsInf(r, 1) || r <= 0 {
			continue
		}
		sp.atUpper[j] = true
	}
	sp.computeXB(ws)
	return true
}

// crashSeed builds a basis at the vertex of a caller-supplied feasible
// point: variables strictly inside their
// bounds become basic (pivoted in by one factorization pass, fill-ordered
// arrival), variables at a finite upper bound are anchored there, and
// every unclaimed row keeps its slack. Requires nartif == 0 (checked by
// the caller). Returns false on a rank-deficient or ill-shaped seed.
func (sp *sparseCore) crashSeed(ws *Workspace, p *Problem, x []float64) bool {
	n := len(p.C)
	if len(x) != n {
		return false
	}
	m := sp.m
	for j := 0; j < sp.total; j++ {
		sp.inBasis[j] = false
		sp.atUpper[j] = false
	}
	sp.claimed = growBools(sp.claimed, m)
	claimed := sp.claimed[:m]
	for i := range claimed {
		claimed[i] = false
	}
	sp.eta.reset()
	sp.factorizations++
	for j := 0; j < n; j++ {
		vc := ws.cols[j]
		if vc.neg >= 0 {
			return false // split free variable: no single column to seed
		}
		v := x[j] - vc.shift
		if vc.mirror {
			v = vc.shift - x[j]
		}
		rng := sp.rng[vc.col]
		switch {
		case v <= installTol:
			// at lower bound: nonbasic, nothing to do
		case !math.IsInf(rng, 1) && v >= rng-installTol:
			sp.atUpper[vc.col] = true
		default:
			// Strictly interior: pivot into the basis on the largest
			// unclaimed row.
			idx := sp.scatterColumn(vc.col)
			idx = sp.ftranTracked(idx)
			r, best := -1, installTol
			for _, i := range idx {
				if !claimed[i] && math.Abs(sp.w[i]) > best {
					best = math.Abs(sp.w[i])
					r = int(i)
				}
			}
			if r < 0 {
				sp.clearW(idx)
				return false
			}
			sp.eta.appendEta(sp.w, idx, int32(r))
			sp.clearW(idx)
			claimed[r] = true
			sp.basis[r] = vc.col
			sp.inBasis[vc.col] = true
		}
	}
	// Unclaimed rows keep their slack (nartif == 0 means every row is LE
	// after normalization, so row i's slack is column ncols+i).
	for r := 0; r < m; r++ {
		if claimed[r] {
			continue
		}
		c := sp.ncols + r
		idx := sp.scatterColumn(c)
		idx = sp.ftranTracked(idx)
		rr, best := -1, eps
		if !claimed[r] && math.Abs(sp.w[r]) > best {
			rr, best = r, math.Abs(sp.w[r])
		}
		if rr < 0 {
			for _, i := range idx {
				if !claimed[i] && math.Abs(sp.w[i]) > best {
					best = math.Abs(sp.w[i])
					rr = int(i)
				}
			}
		}
		if rr < 0 {
			sp.clearW(idx)
			return false
		}
		sp.eta.appendEta(sp.w, idx, int32(rr))
		sp.clearW(idx)
		claimed[rr] = true
		sp.basis[rr] = c
		sp.inBasis[c] = true
	}
	sp.etasAtFact = sp.eta.count()
	sp.computeXB(ws)
	return true
}

// dualRepair restores primal feasibility of an installed basis with
// bounded-variable dual-simplex pivots. An installed basis that was
// optimal for a neighboring problem (the parent branch-and-bound node, or
// the previous simulation frame) is dual feasible -- the reduced costs
// depend only on the matrix and objective, which did not change -- and
// primal infeasible in at most a few rows, so a handful of dual pivots
// reaches a feasible (usually optimal) vertex where a cold phase 2 would
// start over from the all-slack corner. Correctness does not ride on the
// pivot choices: the caller always runs primal phase 2 afterwards, which
// verifies optimality from whatever vertex this reaches. Per pivot it
// prices with two BTRANs (multipliers and the violated row of B^-1) and
// one sweep over the sparse columns. Returns false -- counted in
// RepairFails -- when a violated row has no eligible entering column or
// the budget runs out; the caller then rebuilds and goes cold.
func (sp *sparseCore) dualRepair(ws *Workspace, maxPivots int) bool {
	if !sp.dualRepairRun(ws, maxPivots) {
		ws.RepairFails++
		return false
	}
	return true
}

func (sp *sparseCore) dualRepairRun(ws *Workspace, maxPivots int) bool {
	m := sp.m
	limit := sp.artbase // phase-2 discipline: artificials may not enter
	obj := sp.obj
	for pivots := 0; pivots < maxPivots; pivots++ {
		// Most-violated basic variable: below zero or above its range.
		r, atUp, viol := -1, false, installTol
		for i := 0; i < m; i++ {
			v := sp.xB[i]
			if d := -v; d > viol {
				r, atUp, viol = i, false, d
			}
			if ub := sp.rng[sp.basis[i]]; !math.IsInf(ub, 1) {
				if d := v - ub; d > viol {
					r, atUp, viol = i, true, d
				}
			}
		}
		if r < 0 {
			return true
		}
		// y = B^-T c_B for reduced costs; rho = B^-T e_r is row r of
		// B^-1, whose dot with each column gives the pivot-row entries.
		y := sp.y[:m]
		for i := 0; i < m; i++ {
			y[i] = obj[sp.basis[i]]
		}
		sp.eta.btran(y)
		rho := sp.rhs[:m]
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		sp.eta.btran(rho)
		enter, bestRatio, bestW := -1, math.Inf(1), 0.0
		for _, j32 := range ws.price {
			j := int(j32)
			if j >= limit {
				break
			}
			if sp.inBasis[j] {
				continue
			}
			arj, dj := 0.0, obj[j]
			for q := sp.colPtr[j]; q < sp.colPtr[j+1]; q++ {
				v := sp.vals[q]
				i := sp.rowIdx[q]
				arj += v * rho[i]
				dj -= v * y[i]
			}
			dirj := 1.0
			if sp.atUpper[j] {
				dirj = -1
			}
			w := dirj * arj
			if atUp {
				if w < eps {
					continue // must pull xB[r] down
				}
			} else if w > -eps {
				continue // must push xB[r] up
			}
			rr := dj
			if sp.atUpper[j] {
				rr = -rr
			}
			ratio := -rr / math.Abs(w)
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && math.Abs(w) > math.Abs(bestW)) {
				enter, bestRatio, bestW = j, ratio, w
			}
		}
		if enter < 0 {
			return false // unrepairable row: let the cold path decide
		}
		dir := 1.0
		if sp.atUpper[enter] {
			dir = -1
		}
		idx := sp.scatterColumn(enter)
		idx = sp.ftranTracked(idx)
		var step float64
		if atUp {
			step = (sp.xB[r] - sp.rng[sp.basis[r]]) / (dir * sp.w[r])
		} else {
			step = sp.xB[r] / (dir * sp.w[r])
		}
		if step < 0 {
			step = 0
		}
		if rj := sp.rng[enter]; step > rj {
			// Entering column hits its own opposite bound first: bound
			// flip, keep the basis, re-select next round.
			for _, i32 := range idx {
				i := int(i32)
				sp.xB[i] -= rj * dir * sp.w[i]
			}
			sp.atUpper[enter] = !sp.atUpper[enter]
			sp.clearW(idx)
			sp.iters++
			continue
		}
		sp.pivot(r, enter, dir, step, atUp, idx)
		sp.iters++
		if sp.eta.count()-sp.etasAtFact >= sp.refactorBudget(ws) {
			if !sp.refactorize(ws, eps) {
				return false
			}
		}
	}
	return sp.primalFeasible()
}
