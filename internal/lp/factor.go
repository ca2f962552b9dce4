package lp

import "math"

// Basis factorization for the sparse revised simplex (sparse.go). The
// basis inverse is held in product form as a sequence of eta
// transformations (an "eta file"): B^-1 = E_K ... E_1, where each eta
// differs from the identity in one column. A fresh factorization appends
// one eta per basis column in a fill-reducing order -- row-singleton
// triangularization first (provably zero fill), then the residual "bump"
// by ascending active-column count with largest-magnitude pivot rows, a
// Markowitz-style selection specialized to the near-triangular bases the
// flow-shaped scheduling models produce. Each simplex pivot afterwards
// appends a single update eta; when the update budget runs out the file
// is rebuilt from scratch (refactorization, sparse.go).

// etaFile is the product-form representation of B^-1. Eta k pivots on
// row piv[k] with pivot value pval[k]; its off-pivot nonzeros sit at rows
// row[ptr[k]:ptr[k+1]] with values val[ptr[k]:ptr[k+1]].
//
// FTRAN (v <- B^-1 v) applies etas in build order:
//
//	t := v[r] / w_r;  v[r] = t;  v[i] -= w_i * t
//
// BTRAN (y <- B^-T y) applies transposed etas in reverse order:
//
//	y[r] = (y[r] - sum_i w_i * y[i]) / w_r
//
// Both skip an eta entirely when its pivot coordinate is zero, which is
// what makes FTRAN of a sparse column cost O(nonzeros touched) instead of
// O(m * etas).
type etaFile struct {
	ptr  []int32
	row  []int32
	val  []float64
	piv  []int32
	pval []float64
}

func (e *etaFile) reset() {
	if e.ptr == nil {
		e.ptr = make([]int32, 1, 64)
	}
	e.ptr = e.ptr[:1]
	e.ptr[0] = 0
	e.row = e.row[:0]
	e.val = e.val[:0]
	e.piv = e.piv[:0]
	e.pval = e.pval[:0]
}

// count reports the number of etas in the file.
func (e *etaFile) count() int { return len(e.piv) }

// nnz reports the total stored entries (pivots plus off-pivot values).
func (e *etaFile) nnz() int { return len(e.row) + len(e.piv) }

// appendEta records the eta that maps the (already FTRANed) column w to
// the unit vector e_r. idx must list w's nonzero positions without
// duplicates; w is not modified.
func (e *etaFile) appendEta(w []float64, idx []int32, r int32) {
	for _, i := range idx {
		if i == r || w[i] == 0 {
			continue
		}
		e.row = append(e.row, i)
		e.val = append(e.val, w[i])
	}
	e.ptr = append(e.ptr, int32(len(e.row)))
	e.piv = append(e.piv, r)
	e.pval = append(e.pval, w[r])
}

// ftran applies B^-1 to a dense vector in place.
func (e *etaFile) ftran(v []float64) {
	for k := 0; k < len(e.piv); k++ {
		r := e.piv[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t /= e.pval[k]
		v[r] = t
		for q := e.ptr[k]; q < e.ptr[k+1]; q++ {
			v[e.row[q]] -= e.val[q] * t
		}
	}
}

// btran applies B^-T to a dense vector in place.
func (e *etaFile) btran(y []float64) {
	for k := len(e.piv) - 1; k >= 0; k-- {
		r := e.piv[k]
		t := y[r]
		for q := e.ptr[k]; q < e.ptr[k+1]; q++ {
			t -= e.val[q] * y[e.row[q]]
		}
		y[r] = t / e.pval[k]
	}
}

// ftranTracked applies B^-1 to the scattered vector in sp.w, maintaining
// the invariant that every nonzero position is marked and listed in idx
// (no duplicates), so callers can run the ratio test and clear the vector
// in O(touched) instead of O(m). Returns the extended index list.
func (sp *sparseCore) ftranTracked(idx []int32) []int32 {
	e := &sp.eta
	v := sp.w
	for k := 0; k < len(e.piv); k++ {
		r := e.piv[k]
		t := v[r]
		if t == 0 {
			continue
		}
		t /= e.pval[k]
		v[r] = t
		for q := e.ptr[k]; q < e.ptr[k+1]; q++ {
			i := e.row[q]
			if !sp.mark[i] {
				sp.mark[i] = true
				idx = append(idx, i)
			}
			v[i] -= e.val[q] * t
		}
	}
	return idx
}

// scatterColumn loads CSC column j into the tracked work vector sp.w.
func (sp *sparseCore) scatterColumn(j int) []int32 {
	idx := sp.wIdx[:0]
	for q := sp.colPtr[j]; q < sp.colPtr[j+1]; q++ {
		i := sp.rowIdx[q]
		sp.w[i] = sp.vals[q]
		sp.mark[i] = true
		idx = append(idx, i)
	}
	return idx
}

// clearW re-zeroes the tracked work vector after use, restoring the
// all-zero/all-unmarked invariant scatterColumn relies on.
func (sp *sparseCore) clearW(idx []int32) {
	for _, i := range idx {
		sp.w[i] = 0
		sp.mark[i] = false
	}
	sp.wIdx = idx[:0]
}

// factorizeBasis rebuilds the eta file for sp.basis. On success sp.basis
// is re-indexed so sp.basis[r] is the column pivoted at row r -- the
// basis-by-row convention the ratio test, xB bookkeeping and saved-basis
// snapshots all share. Returns false when the
// basis is numerically singular at the given pivot tolerance, leaving the
// core for the caller to rebuild.
func (sp *sparseCore) factorizeBasis(tol float64) bool {
	m := sp.m
	e := &sp.eta
	e.reset()
	sp.etasAtFact = 0
	sp.factorizations++

	// Pattern of the basis submatrix by row: rowCols[rcp[r]:rcp[r+1]]
	// lists the basis positions whose column touches row r; act[r] is
	// that count, maintained as columns are placed.
	sp.act = growInt32s(sp.act, m)
	act := sp.act[:m]
	for i := range act {
		act[i] = 0
	}
	nnzB := 0
	for k := 0; k < m; k++ {
		c := sp.basis[k]
		for q := sp.colPtr[c]; q < sp.colPtr[c+1]; q++ {
			act[sp.rowIdx[q]]++
		}
		nnzB += int(sp.colPtr[c+1] - sp.colPtr[c])
	}
	sp.rowColsPtr = growInt32s(sp.rowColsPtr, m+1)
	rcp := sp.rowColsPtr[:m+1]
	rcp[0] = 0
	for i := 0; i < m; i++ {
		rcp[i+1] = rcp[i] + act[i]
	}
	sp.rowCols = growInt32s(sp.rowCols, nnzB)
	sp.colCnt = growInt32s(sp.colCnt, m)
	cur := sp.colCnt[:m]
	copy(cur, rcp[:m])
	for k := 0; k < m; k++ {
		c := sp.basis[k]
		for q := sp.colPtr[c]; q < sp.colPtr[c+1]; q++ {
			i := sp.rowIdx[q]
			sp.rowCols[cur[i]] = int32(k)
			cur[i]++
		}
	}

	sp.claimed = growBools(sp.claimed, m)
	sp.placedF = growBools(sp.placedF, m)
	claimed, placed := sp.claimed[:m], sp.placedF[:m]
	for i := 0; i < m; i++ {
		claimed[i] = false
		placed[i] = false
	}
	sp.order = growInt32s(sp.order, m)
	sp.pivRowOf = growInt32s(sp.pivRowOf, m)
	order, pivRow := sp.order[:m], sp.pivRowOf[:m]
	norder := 0

	// Row-singleton triangularization: a row touched by exactly one
	// unplaced column pins that column's pivot. No other column -- and
	// no eta fill, which only lands in rows a column touches -- can ever
	// produce a nonzero in such a row, so these etas trigger on no later
	// column: the triangular prefix factors with zero fill.
	queue := sp.queue[:0]
	for i := 0; i < m; i++ {
		if act[i] == 1 {
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		if claimed[r] || act[r] != 1 {
			continue
		}
		kk := int32(-1)
		for q := rcp[r]; q < rcp[r+1]; q++ {
			if !placed[sp.rowCols[q]] {
				kk = sp.rowCols[q]
				break
			}
		}
		if kk < 0 {
			continue
		}
		order[norder] = kk
		pivRow[norder] = r
		norder++
		placed[kk] = true
		claimed[r] = true
		c := sp.basis[kk]
		for q := sp.colPtr[c]; q < sp.colPtr[c+1]; q++ {
			i := sp.rowIdx[q]
			if !claimed[i] {
				act[i]--
				if act[i] == 1 {
					queue = append(queue, int32(i))
				}
			}
		}
	}
	sp.queue = queue[:0]

	// Bump: order the remaining columns by ascending active-row count
	// (stable counting sort, so equal counts keep basis-position order
	// and the factorization stays deterministic); rows are chosen
	// numerically below.
	if norder < m {
		maxc := 0
		for k := 0; k < m; k++ {
			if placed[k] {
				continue
			}
			c := sp.basis[k]
			cc := int32(0)
			for q := sp.colPtr[c]; q < sp.colPtr[c+1]; q++ {
				if !claimed[sp.rowIdx[q]] {
					cc++
				}
			}
			cur[k] = cc
			if int(cc) > maxc {
				maxc = int(cc)
			}
		}
		sp.bucket = growInt32s(sp.bucket, maxc+2)
		bucket := sp.bucket[:maxc+2]
		for i := range bucket {
			bucket[i] = 0
		}
		for k := 0; k < m; k++ {
			if !placed[k] {
				bucket[cur[k]+1]++
			}
		}
		for i := 0; i < maxc+1; i++ {
			bucket[i+1] += bucket[i]
		}
		base := norder
		for k := 0; k < m; k++ {
			if placed[k] {
				continue
			}
			pos := base + int(bucket[cur[k]])
			bucket[cur[k]]++
			order[pos] = int32(k)
			pivRow[pos] = -1
		}
		norder = m
	}

	// Numeric pass: FTRAN each column through the etas built so far,
	// pivot on its preassigned row when still sound, else on the
	// largest-magnitude entry in an unclaimed row.
	for t := 0; t < m; t++ {
		k := order[t]
		idx := sp.scatterColumn(sp.basis[k])
		idx = sp.ftranTracked(idx)
		r := int(pivRow[t])
		if r >= 0 && math.Abs(sp.w[r]) <= tol {
			claimed[r] = false // triangular pivot went numerically bad
			r = -1
		}
		if r < 0 {
			best := tol
			for _, i := range idx {
				if !claimed[i] && math.Abs(sp.w[i]) > best {
					best = math.Abs(sp.w[i])
					r = int(i)
				}
			}
			if r < 0 {
				sp.clearW(idx)
				return false // singular
			}
			claimed[r] = true
			pivRow[t] = int32(r)
		}
		e.appendEta(sp.w, idx, int32(r))
		sp.clearW(idx)
	}
	if f := e.nnz() - nnzB; f > 0 {
		sp.fillIn += f
	}

	// Re-index the basis by pivot row so position == row everywhere
	// downstream.
	sp.basisTmp = growInts(sp.basisTmp, m)
	for t := 0; t < m; t++ {
		sp.basisTmp[pivRow[t]] = sp.basis[order[t]]
	}
	copy(sp.basis[:m], sp.basisTmp[:m])
	sp.etasAtFact = e.count()
	return true
}
