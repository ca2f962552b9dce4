package dataset

import (
	"math"
	"sync"

	"eagleeye/internal/geo"
)

// Index is a uniform lat/lon grid over a target set, answering "which
// targets could lie within R meters of this point" queries. The simulator
// issues one query per leader frame, so the index is what makes 24-hour
// million-target runs tractable.
type Index struct {
	set     *Set
	cellDeg float64
	atTime  float64
	// Cell storage is CSR over the dense row*stride+col key space: cell k
	// holds arena[offsets[k]:offsets[k+1]], members in input order. A flat
	// offsets array replaces the old map of cells: the query loop touches
	// every cell in a window, and the per-cell map hashing dominated the
	// lookup cost on large static sets.
	offsets []int32
	arena   []int32
	// pos is each target's indexed position (latitude and wrapped
	// longitude at atTime) in float32, in target order. Queries test it
	// against the query's lat/lon box before emitting a cell member.
	pos []pos32
	// stride is the cell-key row stride: one more than the column count,
	// so any longitude cell (including lon = +180 after wrapping) fits a
	// row without aliasing into its neighbor.
	stride int64
	// nrows bounds the latitude rows; queries clamp to [0, nrows).
	nrows int64
	// maxSpeed widens queries when positions were indexed at a different
	// time than the query.
	maxSpeed float64
}

// pos32 is an indexed position rounded to float32: half the footprint of
// float64, and its rounding (at most ~7.6e-6 degrees at |lon| <= 180) is
// absorbed by boxSlackDeg.
type pos32 struct{ lat, lon float32 }

// boxSlackDeg widens a query's lat/lon box by more than twice the float32
// rounding of a stored coordinate, so a member whose float64 position is
// inside the box is never rejected on its rounded copy.
const boxSlackDeg = 2e-5

// NewIndex builds a grid index of the set's positions at elapsed time
// atTime (targets inactive at that time are still indexed; callers filter
// with ActiveAt). cellDeg 0 defaults to 2 degrees.
func NewIndex(s *Set, cellDeg float64, atTime float64) *Index {
	if cellDeg <= 0 {
		cellDeg = 2
	}
	ix := &Index{
		set:     s,
		cellDeg: cellDeg,
		atTime:  atTime,
		stride:  int64(math.Ceil(360/cellDeg)) + 1,
		nrows:   int64(math.Ceil(180/cellDeg)) + 1,
	}
	// Counting-sort build: count members per cell, prefix-sum into the CSR
	// offsets, then scatter indices in input order (so cell membership
	// order matches the old per-cell appends exactly).
	ncells := ix.nrows * ix.stride
	keys := make([]int32, len(s.Targets))
	pos := make([]pos32, len(s.Targets))
	offsets := make([]int32, ncells+1)
	for i := range s.Targets {
		t := &s.Targets[i]
		if t.SpeedMS > ix.maxSpeed {
			ix.maxSpeed = t.SpeedMS
		}
		p := t.PosAt(atTime)
		lon := geo.WrapLonDeg(p.Lon)
		k := ix.key(p.Lat, lon)
		keys[i] = int32(k)
		pos[i] = pos32{lat: float32(p.Lat), lon: float32(lon)}
		offsets[k+1]++
	}
	for c := int64(1); c <= ncells; c++ {
		offsets[c] += offsets[c-1]
	}
	// Scatter using offsets[k] as cell k's cursor; afterwards offsets[k]
	// holds cell k's end, so shifting by one slot restores the starts.
	arena := make([]int32, len(s.Targets))
	for i, k := range keys {
		arena[offsets[k]] = int32(i)
		offsets[k]++
	}
	copy(offsets[1:], offsets[:ncells])
	offsets[0] = 0
	ix.offsets = offsets
	ix.arena = arena
	ix.pos = pos
	return ix
}

// Set returns the underlying target set.
func (ix *Index) Set() *Set { return ix.set }

// key maps a latitude and an already wrapped longitude to its cell key.
func (ix *Index) key(lat, wrappedLon float64) int64 {
	r := int64(math.Floor((lat + 90) / ix.cellDeg))
	if r < 0 {
		r = 0
	} else if r >= ix.nrows {
		r = ix.nrows - 1
	}
	c := int64(math.Floor((wrappedLon + 180) / ix.cellDeg))
	if c < 0 {
		c = 0
	} else if c >= ix.stride {
		c = ix.stride - 1
	}
	return r*ix.stride + c
}

// Near returns indices of targets whose indexed position lies within
// roughly radiusM of p (a superset: callers must re-filter precisely).
// queryTime widens the radius by the distance moving targets may have
// travelled since indexing.
func (ix *Index) Near(p geo.LatLon, radiusM float64, queryTime float64) []int32 {
	return ix.NearInto(p, radiusM, queryTime, nil)
}

// NearInto is Near appending into a caller-owned slice (usually sliced to
// length zero), returning the extended slice. The simulator's frame loop
// reuses one scratch slice per worker instead of allocating per query.
//
// The cells the query walks are 2 degrees wide in the simulator, far wider
// than a capture or frame radius, so each walked member is tested against
// the query's lat/lon bounding box (nearBox) and only those inside are
// emitted. Members keep their CSR order: the result is the in-box
// subsequence of the full cell walk.
func (ix *Index) NearInto(p geo.LatLon, radiusM float64, queryTime float64, out []int32) []int32 {
	pad := ix.maxSpeed * math.Abs(queryTime-ix.atTime)
	radDeg := (radiusM + pad) / 111e3 // meters per degree latitude (conservative)
	if radDeg > 180 {
		radDeg = 180
	}
	latLo := p.Lat - radDeg
	latHi := p.Lat + radDeg
	// Longitude half-window in degrees, valid for every row of the query.
	// For a circle clear of the poles the extreme longitude offset is
	// asin(sin r / cos lat), attained at the tangent parallel rather than
	// the query latitude; the old per-row radDeg/cos(poleward) window
	// under-covered trans-polar reach and, near its 360-degree overflow,
	// wrapped past its own starting cell and reported candidates twice. A
	// circle containing a pole reaches every longitude, so those queries
	// scan full rows.
	poleIn := math.Abs(p.Lat)+radDeg >= 90
	var lonWin float64
	if !poleIn {
		sinR := math.Sin(geo.Deg2Rad(radDeg))
		cosLat := math.Cos(geo.Deg2Rad(p.Lat))
		lonWin = geo.Rad2Deg(math.Asin(math.Min(1, sinR/cosLat)))
	}
	lonQ := geo.WrapLonDeg(p.Lon)
	// Clamp a padded span approaching one full row to a single full-row
	// pass so the walk never revisits its starting cell (the 2-cell slack
	// absorbs column-flooring at both ends).
	fullRow := poleIn || 2*lonWin+3*ix.cellDeg >= 360
	box := newNearBox(latLo, latHi, lonQ, lonWin, fullRow)
	// The rows from latLo's through one row of flooring slack past the
	// span, enumerated as integers: stepping a float latitude by cellDeg
	// drifts, and when latLo sat on a row edge the drift skipped a row.
	rowLo := math.Floor((latLo + 90) / ix.cellDeg)
	rowHi := rowLo + math.Floor((latHi-latLo)/ix.cellDeg) + 1
	if rowLo < 0 {
		rowLo = 0
	}
	if top := float64(ix.nrows - 1); rowHi > top {
		rowHi = top
	}
	if !(rowLo <= rowHi) {
		return out
	}
	for row := int64(rowLo); row <= int64(rowHi); row++ {
		base := row * ix.stride
		if fullRow {
			// Every cell of the row, including the seam column.
			out = ix.appendSpan(out, base, base+ix.stride, &box)
			continue
		}
		// Column span [lo, hi] with one cell of slack, split at the
		// antimeridian. A split range always touches lon = ±180, whose
		// targets live in the extra seam column (WrapLonDeg maps -180 to
		// +180, past the last regular column) — the old lon-walk keyed its
		// -180 step into that seam column and skipped the first regular
		// cell of the row.
		lo := lonQ - lonWin
		hi := lonQ + lonWin + ix.cellDeg
		seam := base + ix.stride - 1
		switch {
		case lo < -180:
			out = ix.appendCols(out, row, ix.col(lo+360), ix.stride-2, &box)
			out = ix.appendSpan(out, seam, seam+1, &box)
			out = ix.appendCols(out, row, 0, ix.col(hi), &box)
		case hi >= 180:
			out = ix.appendCols(out, row, ix.col(lo), ix.stride-2, &box)
			out = ix.appendSpan(out, seam, seam+1, &box)
			out = ix.appendCols(out, row, 0, ix.col(hi-360), &box)
		default:
			out = ix.appendCols(out, row, ix.col(lo), ix.col(hi), &box)
		}
	}
	return out
}

// nearBox is a query's lat/lon bounding box, widened by boxSlackDeg. Every
// point within the query's padded radius lies inside it: latitude within
// radDeg of the query, longitude within lonWin of it modulo 360. A box
// whose rows are walked in full tests latitude only (lonWin is +Inf).
type nearBox struct {
	latLo, latHi float64
	lonQ, lonWin float64
}

func newNearBox(latLo, latHi, lonQ, lonWin float64, fullRow bool) nearBox {
	b := nearBox{
		latLo:  latLo - boxSlackDeg,
		latHi:  latHi + boxSlackDeg,
		lonQ:   lonQ,
		lonWin: lonWin + boxSlackDeg,
	}
	if fullRow {
		b.lonWin = math.Inf(1)
	}
	return b
}

// has reports whether an indexed position lies inside the box. The
// longitude offset is reduced into [-180, 180] so the antimeridian seam
// column is tested like any other column.
func (b *nearBox) has(p pos32) bool {
	lat := float64(p.lat)
	if !(lat >= b.latLo && lat <= b.latHi) {
		return false
	}
	d := float64(p.lon) - b.lonQ
	if d > 180 {
		d -= 360
	} else if d < -180 {
		d += 360
	}
	return math.Abs(d) <= b.lonWin
}

// col maps an unwrapped longitude to its column index (no range clamping).
func (ix *Index) col(lon float64) int64 {
	return int64(math.Floor((lon + 180) / ix.cellDeg))
}

// appendCols appends the in-box members of columns [cLo, cHi] of a row,
// clamped to the regular-column range.
func (ix *Index) appendCols(out []int32, row, cLo, cHi int64, b *nearBox) []int32 {
	if cLo < 0 {
		cLo = 0
	}
	if cHi > ix.stride-2 {
		cHi = ix.stride - 2
	}
	if cHi < cLo {
		return out
	}
	// One contiguous CSR range covers the whole column span.
	base := row * ix.stride
	return ix.appendSpan(out, base+cLo, base+cHi+1, b)
}

// appendSpan appends, in CSR order, the members of cells [kLo, kHi) whose
// indexed position lies inside b.
func (ix *Index) appendSpan(out []int32, kLo, kHi int64, b *nearBox) []int32 {
	pos := ix.pos
	for _, i := range ix.arena[ix.offsets[kLo]:ix.offsets[kHi]] {
		if b.has(pos[i]) {
			out = append(out, i)
		}
	}
	return out
}

// TimedIndex maintains per-time-bucket indices for moving target sets,
// rebuilding lazily as the simulation advances. It is safe for concurrent
// use: the parallel simulator shares one TimedIndex across worker
// goroutines, so bucket construction is mutex-guarded (a completed Index
// is immutable and read without locking).
type TimedIndex struct {
	set     *Set
	cellDeg float64
	bucketS float64

	mu      sync.RWMutex
	buckets map[int64]*Index
}

// NewTimedIndex creates a lazily-populated timed index. bucketS 0 defaults
// to 600 s (moving-target positions are re-indexed every ten minutes).
func NewTimedIndex(s *Set, cellDeg, bucketS float64) *TimedIndex {
	if bucketS <= 0 {
		bucketS = 600
	}
	return &TimedIndex{set: s, cellDeg: cellDeg, bucketS: bucketS, buckets: make(map[int64]*Index)}
}

// Near returns candidate indices near p at elapsed time ts.
func (tx *TimedIndex) Near(p geo.LatLon, radiusM float64, ts float64) []int32 {
	return tx.NearInto(p, radiusM, ts, nil)
}

// NearInto is Near appending into a caller-owned slice. The scratch slice
// stays private to the calling goroutine; only the bucket lookup/build is
// synchronized.
func (tx *TimedIndex) NearInto(p geo.LatLon, radiusM float64, ts float64, out []int32) []int32 {
	if !tx.set.Moving {
		// Static sets need a single bucket.
		ts = 0
	}
	b := int64(math.Floor(ts / tx.bucketS))
	tx.mu.RLock()
	ix := tx.buckets[b]
	tx.mu.RUnlock()
	if ix == nil {
		// Double-checked build: another worker may have populated the
		// bucket while we waited for the write lock.
		tx.mu.Lock()
		if ix = tx.buckets[b]; ix == nil {
			ix = NewIndex(tx.set, tx.cellDeg, float64(b)*tx.bucketS)
			tx.buckets[b] = ix
		}
		tx.mu.Unlock()
	}
	return ix.NearInto(p, radiusM, ts, out)
}

// Set returns the underlying target set.
func (tx *TimedIndex) Set() *Set { return tx.set }
