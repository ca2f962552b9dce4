package lp

// Starting-basis reuse: a Workspace that solves a stream of same-shaped
// problems (branch-and-bound node relaxations, or one scheduling model per
// simulation frame) can skip simplex phase 1 by re-installing the previous
// solve's optimal basis, provided that basis is still primal-feasible under
// the new bounds and right-hand sides. The install is one basis
// factorization, after which phase 2 starts from a (usually near-optimal)
// feasible vertex instead of the all-slack corner phase 1 leaves behind.
// When the saved basis is stale (shape changed, numerically singular, or
// infeasible under the new bounds beyond what dual repair fixes), the
// workspace falls back to the ordinary two-phase path by rebuilding; reuse
// is strictly an accelerator and never changes the set of solutions the
// simplex can reach. The install, repair and crash mechanics live in
// sparse.go.

const installTol = 1e-7 // pivot magnitude / primal feasibility tolerance

// InvalidateBasis discards any saved starting basis and any pending seed
// point. Callers that pool or hand off workspaces use it to make a reused
// workspace behave exactly like a fresh one (capacity aside).
func (ws *Workspace) InvalidateBasis() {
	ws.savedOK = false
	ws.seed = nil
}

// SeedPoint offers x (a feasible point of the NEXT problem solved on this
// workspace, in original variable space) as a one-shot crash-basis
// candidate. When the next solve has no applicable saved basis -- the
// first solve of a new shape, typically the root relaxation of a fresh
// branch-and-bound tree -- the workspace pivots x's interior variables
// into the basis directly and starts phase 2 from x's vertex, skipping
// phase 1. A point that turns out infeasible or rank-deficient costs one
// rebuild and falls back to the cold path. The slice is not retained past
// the next solve.
func (ws *Workspace) SeedPoint(x []float64) { ws.seed = x }

// saveBasis records a basis snapshot after an optimal solve, as column
// indices against the shape in ws.shp. Bases containing artificial
// columns (possible when artificial eviction finds no structural pivot on
// a degenerate row) are not saved: re-installing one would resurrect a
// column phase 2 must not use.
func (ws *Workspace) saveBasis(basis []int, atUpper []bool) {
	s := &ws.shp
	for i := 0; i < s.m; i++ {
		if basis[i] >= s.artbase {
			ws.savedOK = false
			return
		}
	}
	ws.savedBasis = growInts(ws.savedBasis, s.m)
	copy(ws.savedBasis, basis[:s.m])
	ws.savedAtUpper = growBools(ws.savedAtUpper, s.total)
	copy(ws.savedAtUpper, atUpper[:s.total])
	ws.savedM, ws.savedTotal, ws.savedNcols = s.m, s.total, s.ncols
	ws.savedOK = true
}

// basisShapeMatches reports whether the freshly analyzed problem has the
// same shape as the saved basis. Same shape is necessary (column indices
// keep their meaning) but not sufficient (bounds may have moved); the
// install performs the feasibility check.
func (ws *Workspace) basisShapeMatches() bool {
	s := &ws.shp
	return ws.savedOK && s.m == ws.savedM && s.total == ws.savedTotal && s.ncols == ws.savedNcols
}
