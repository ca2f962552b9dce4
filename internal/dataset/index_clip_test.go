package dataset

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/geo"
)

// clipQuery is the geometry of one query as the reference computes it:
// its box, and which of the walk's special cases it takes.
type clipQuery struct {
	box     nearBox
	pad     float64
	poleIn  bool
	fullRow bool // a full-row pass without a pole in the circle
	split   bool // the column span crosses the antimeridian seam
}

// refNearInto is the unclipped grid-index query: every member of every
// walked cell, in CSR order, plus the query's geometry. It is the
// reference the box-clipped NearInto must reproduce, filtered by the box
// test, element for element. Its rows are enumerated as integers, like
// NearInto's: the float latitude step it replaced could skip a row when
// the query's lower edge sat on a row edge.
func refNearInto(ix *Index, p geo.LatLon, radiusM float64, queryTime float64) ([]int32, clipQuery) {
	pad := ix.maxSpeed * math.Abs(queryTime-ix.atTime)
	radDeg := (radiusM + pad) / 111e3
	if radDeg > 180 {
		radDeg = 180
	}
	latLo := p.Lat - radDeg
	latHi := p.Lat + radDeg
	poleIn := math.Abs(p.Lat)+radDeg >= 90
	var lonWin float64
	if !poleIn {
		sinR := math.Sin(geo.Deg2Rad(radDeg))
		cosLat := math.Cos(geo.Deg2Rad(p.Lat))
		lonWin = geo.Rad2Deg(math.Asin(math.Min(1, sinR/cosLat)))
	}
	lonQ := geo.WrapLonDeg(p.Lon)
	fullRow := poleIn || 2*lonWin+3*ix.cellDeg >= 360
	cq := clipQuery{
		box:     newNearBox(latLo, latHi, lonQ, lonWin, fullRow),
		pad:     pad,
		poleIn:  poleIn,
		fullRow: fullRow && !poleIn,
		split:   !fullRow && (lonQ-lonWin < -180 || lonQ+lonWin+ix.cellDeg >= 180),
	}
	cell := func(k int64) []int32 { return ix.arena[ix.offsets[k]:ix.offsets[k+1]] }
	cols := func(out []int32, row, cLo, cHi int64) []int32 {
		if cLo < 0 {
			cLo = 0
		}
		if cHi > ix.stride-2 {
			cHi = ix.stride - 2
		}
		if cHi < cLo {
			return out
		}
		base := row * ix.stride
		return append(out, ix.arena[ix.offsets[base+cLo]:ix.offsets[base+cHi+1]]...)
	}
	var out []int32
	rowLo := math.Floor((latLo + 90) / ix.cellDeg)
	rowHi := rowLo + math.Floor((latHi-latLo)/ix.cellDeg) + 1
	for r := rowLo; r <= rowHi; r++ {
		row := int64(r)
		if row < 0 || row >= ix.nrows {
			continue
		}
		if fullRow {
			base := row * ix.stride
			out = append(out, ix.arena[ix.offsets[base]:ix.offsets[base+ix.stride]]...)
			continue
		}
		lo := lonQ - lonWin
		hi := lonQ + lonWin + ix.cellDeg
		switch {
		case lo < -180:
			out = cols(out, row, ix.col(lo+360), ix.stride-2)
			out = append(out, cell(row*ix.stride+ix.stride-1)...)
			out = cols(out, row, 0, ix.col(hi))
		case hi >= 180:
			out = cols(out, row, ix.col(lo), ix.stride-2)
			out = append(out, cell(row*ix.stride+ix.stride-1)...)
			out = cols(out, row, 0, ix.col(hi-360))
		default:
			out = cols(out, row, ix.col(lo), ix.col(hi))
		}
	}
	return out, cq
}

// clipWorld builds the fuzz world: targets clustered around the query so
// the box edges are contested, a scattered background, and targets placed
// exactly on the antimeridian (the seam column holds lon = +180), on a
// pole, on cell edges and on the query point itself. A non-zero dtS
// makes the set moving.
func clipWorld(seed int64, q geo.LatLon, radiusM, cellDeg, dtS float64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := &Set{Name: "clip-fuzz", Moving: dtS != 0}
	add := func(p geo.LatLon) {
		t := Target{ID: len(s.Targets), Pos: p.Normalize(), Value: 1}
		if s.Moving {
			t.SpeedMS = rng.Float64() * 250
			t.HeadingDeg = rng.Float64() * 360
		}
		s.Targets = append(s.Targets, t)
	}
	spread := math.Min(3*radiusM/111e3+cellDeg, 180)
	for i := 0; i < 160; i++ {
		add(geo.LatLon{
			Lat: q.Lat + (rng.Float64()*2-1)*spread,
			Lon: q.Lon + (rng.Float64()*2-1)*spread,
		})
	}
	for i := 0; i < 40; i++ {
		add(geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})
	}
	for i := 0; i < 8; i++ {
		lat := q.Lat + (rng.Float64()*2-1)*spread
		add(geo.LatLon{Lat: lat, Lon: 180})
		add(geo.LatLon{Lat: lat, Lon: -180})
		add(geo.LatLon{Lat: math.Floor(lat/cellDeg) * cellDeg, Lon: math.Floor(q.Lon/cellDeg) * cellDeg})
	}
	add(geo.LatLon{Lat: 90, Lon: q.Lon})
	add(geo.LatLon{Lat: -90, Lon: q.Lon})
	add(q) // distance 0: only the float32 slack keeps it at radius 0
	return s
}

// clipAtTime is the time the fuzz world is indexed at; queries run at
// clipAtTime + dtS.
const clipAtTime = 1200

// checkClip runs one query and asserts that the clipped NearInto is the
// reference walk filtered by the box test (same members, same order),
// duplicate-free, and contains every target within the radius at the query
// time as well as every target whose indexed position is within the padded
// radius.
func checkClip(t *testing.T, s *Set, q geo.LatLon, radiusM, cellDeg, dtS float64) clipQuery {
	t.Helper()
	ix := NewIndex(s, cellDeg, clipAtTime)
	qt := clipAtTime + dtS
	got := ix.NearInto(q, radiusM, qt, make([]int32, 0, 8))
	ref, cq := refNearInto(ix, q, radiusM, qt)
	var want []int32
	for _, i := range ref {
		if cq.box.has(ix.pos[i]) {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("clipped %d candidates, reference filtered by the box %d", len(got), len(want))
	}
	seen := make(map[int32]bool, len(got))
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("candidate %d: clipped %d, reference %d", k, got[k], want[k])
		}
		if seen[got[k]] {
			t.Fatalf("duplicate candidate %d", got[k])
		}
		seen[got[k]] = true
	}
	for i := range s.Targets {
		tgt := &s.Targets[i]
		if d := geo.GreatCircleDistance(tgt.PosAt(qt), q); d <= radiusM && !seen[int32(i)] {
			t.Fatalf("missed target %d at %.1f m (radius %.1f m, dt %.0f s)", i, d, radiusM, dtS)
		}
		if d := geo.GreatCircleDistance(tgt.PosAt(clipAtTime), q); d <= radiusM+cq.pad && !seen[int32(i)] {
			t.Fatalf("missed target %d indexed at %.1f m (padded radius %.1f m)", i, d, radiusM+cq.pad)
		}
	}
	return cq
}

// clipSeed is one fuzz seed and the walk case it must reach.
type clipSeed struct {
	seed                        int64
	lat, lon, radiusM, cellDeg  float64
	dtS                         float64
	poleIn, fullRow, split, pad bool
}

var clipSeeds = []clipSeed{
	{seed: 1, lat: 12, lon: 34, radiusM: 12e3, cellDeg: 2},                                         // capture-sized query
	{seed: 8, lat: 47.123456789, lon: -122.987654321, radiusM: 0, cellDeg: 2},                      // zero radius: the float32 slack
	{seed: 2, lat: 88.5, lon: -40, radiusM: 300e3, cellDeg: 2, poleIn: true},                       // pole in the circle
	{seed: 3, lat: 0, lon: 20, radiusM: 6e6, cellDeg: 90, fullRow: true},                           // full-row clamp, no pole
	{seed: 4, lat: -35, lon: 179.7, radiusM: 60e3, cellDeg: 2, split: true},                        // seam column, east side
	{seed: 5, lat: 61, lon: -179.9, radiusM: 60e3, cellDeg: 0.5, split: true},                      // seam column, west side
	{seed: 6, lat: 25, lon: -60, radiusM: 12e3, cellDeg: 2, dtS: 420, pad: true},                   // moving set, query after its bucket
	{seed: 7, lat: -70, lon: 179.95, radiusM: 40e3, cellDeg: 2, dtS: -300, pad: true, split: true}, // moving, seam
}

// FuzzNearClipDifferential checks the box-clipped NearInto against the
// unclipped reference walk: the clipped result must be exactly the
// reference's in-box members in reference order, with no duplicate and no
// in-radius miss, for static and moving sets.
func FuzzNearClipDifferential(f *testing.F) {
	for _, c := range clipSeeds {
		f.Add(c.seed, c.lat, c.lon, c.radiusM, c.cellDeg, c.dtS)
	}
	f.Fuzz(func(t *testing.T, seed int64, lat, lon, radiusM, cellDeg, dtS float64) {
		if !(lat >= -90 && lat <= 90) || !(lon >= -360 && lon <= 360) {
			t.Skip()
		}
		if !(radiusM >= 0 && radiusM <= 2.5e7) || !(cellDeg >= 0.05 && cellDeg <= 90) {
			t.Skip()
		}
		if !(dtS >= -600 && dtS <= 600) {
			t.Skip()
		}
		q := geo.LatLon{Lat: lat, Lon: lon}.Normalize()
		checkClip(t, clipWorld(seed, q, radiusM, cellDeg, dtS), q, radiusM, cellDeg, dtS)
	})
}

// TestNearClipSeedsExercise pins each fuzz seed to the walk case it was
// written for, so a change in the query geometry cannot quietly leave a
// case (pole, full-row clamp, seam column, moving pad) unexercised.
func TestNearClipSeedsExercise(t *testing.T) {
	for _, c := range clipSeeds {
		q := geo.LatLon{Lat: c.lat, Lon: c.lon}.Normalize()
		s := clipWorld(c.seed, q, c.radiusM, c.cellDeg, c.dtS)
		cq := checkClip(t, s, q, c.radiusM, c.cellDeg, c.dtS)
		if cq.poleIn != c.poleIn || cq.fullRow != c.fullRow || cq.split != c.split || (cq.pad > 0) != c.pad {
			t.Errorf("seed %d: pole %v full-row %v split %v pad %.0f, want pole %v full-row %v split %v pad %v",
				c.seed, cq.poleIn, cq.fullRow, cq.split, cq.pad, c.poleIn, c.fullRow, c.split, c.pad)
		}
		if c.split && c.dtS == 0 {
			// Static seam seeds must populate the seam column (moving
			// targets placed on lon = 180 drift off it by the index time).
			ix := NewIndex(s, c.cellDeg, clipAtTime)
			inSeam := 0
			for row := int64(0); row < ix.nrows; row++ {
				k := row*ix.stride + ix.stride - 1
				inSeam += int(ix.offsets[k+1] - ix.offsets[k])
			}
			if inSeam == 0 {
				t.Errorf("seed %d: no target in the seam column", c.seed)
			}
		}
	}
}

// TestNearRowEdgeNoSkippedRow pins the integer row walk. A query whose
// lower latitude edge lies exactly on a row edge (here 16 - 180 = -164,
// i.e. row -259 of 2/7-degree cells) used to step a float latitude across
// the rows; its rounding drift skipped row 34 and lost every target in it.
func TestNearRowEdgeNoSkippedRow(t *testing.T) {
	s := &Set{Name: "row-edge"}
	for i := 0; i < 8; i++ {
		s.Targets = append(s.Targets, Target{ID: i, Pos: geo.LatLon{Lat: -80.21, Lon: float64(i*45 - 180)}.Normalize(), Value: 1})
	}
	ix := NewIndex(s, 0.2857142857142857, 0)
	got := ix.Near(geo.LatLon{Lat: 16, Lon: 149.33333333333334}, 2.0000415e7, 0)
	if len(got) != len(s.Targets) {
		t.Fatalf("found %d of %d targets in the row on the query's lower edge", len(got), len(s.Targets))
	}
}
