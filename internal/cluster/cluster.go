// Package cluster implements EagleEye's target clustering (§4.1): covering
// the targets detected in one low-resolution frame with the minimum number
// of high-resolution image footprints, so that nearby targets are captured
// together in a single follower image.
//
// The problem is a planar point cover by axis-aligned, fixed-size
// rectangles (the high-resolution footprint; the paper assumes the
// high-resolution image sides stay parallel to the low-resolution image
// sides). There is always an optimal cover in which every rectangle has its
// left edge and bottom edge touching target points, so the candidate set is
// the O(M^2) grid of (x from targets, y from targets) placements. The
// minimal cover over those candidates is found with a set-cover ILP solved
// by internal/mip, exactly as the paper uses OR-Tools. A greedy
// most-uncovered-first cover is used as the fallback for frames whose
// candidate count exceeds the ILP budget, and as the baseline for the
// clustering ablation.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"eagleeye/internal/geo"
	"eagleeye/internal/lp"
	"eagleeye/internal/mip"
)

// Cluster is one high-resolution capture covering a set of targets.
type Cluster struct {
	Box     geo.Rect // footprint on the ground (frame-local meters)
	Members []int    // indices into the input point slice
}

// Center returns the aim point for the capture.
func (c Cluster) Center() geo.Point2 { return c.Box.Center() }

// Method records how a cover was computed.
type Method int8

// Cover methods. MethodGrid is the dense-frame fast path: above
// Options.MaxCoverPoints the canonical candidate enumeration (quadratic
// in points, with per-candidate bitsets) is replaced by a linear
// fixed-grid bucketing of the points into w x h cells.
const (
	MethodILP Method = iota
	MethodGreedy
	MethodGrid
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodILP:
		return "ilp"
	case MethodGrid:
		return "grid"
	}
	return "greedy"
}

// Options tunes Cover. The zero value gives paper-faithful defaults.
type Options struct {
	// MaxILPCandidates caps the candidate-rectangle count sent to the ILP;
	// larger instances fall back to the greedy cover. 0 means 700.
	MaxILPCandidates int
	// MaxCoverPoints caps the point count for candidate enumeration;
	// denser frames take the linear grid-cover fast path (MethodGrid),
	// which buckets points into a fixed w x h grid instead of optimizing
	// placements. 0 means 4096 -- far above every seed-scale frame, so
	// historical covers are unchanged. Negative means no cap.
	MaxCoverPoints int
	// ForceGreedy skips the ILP entirely (the ablation baseline).
	ForceGreedy bool
	// MIP forwards search limits to the solver.
	MIP mip.Options
	// State, when non-nil, carries solver state across the frames of one
	// leader: a pinned arena whose LP workspace (and saved simplex basis)
	// survives between covers, plus the greedy cover re-offered to the
	// ILP as a warm-start candidate. Single-owner; call CoverStats from
	// one goroutine in frame order.
	State *SolverState
}

// SolverState is per-leader persistent clustering state (see Options.State).
// Construct with NewSolverState.
type SolverState struct {
	ar    *coverArena
	warmX []float64

	// GreedySeeds counts covers where the greedy solution was offered to
	// the ILP as a warm candidate.
	GreedySeeds int
}

// NewSolverState returns a fresh per-leader cover solver state with its
// own pinned arena.
func NewSolverState() *SolverState {
	return &SolverState{ar: new(coverArena)}
}

var statePool = sync.Pool{New: func() any { return NewSolverState() }}

// GetSolverState returns a logically fresh cover solver state from a pool,
// keeping the grown arena capacity of earlier uses (see Reset).
func GetSolverState() *SolverState {
	st := statePool.Get().(*SolverState)
	st.Reset()
	return st
}

// PutSolverState returns a state to the pool. The state must not be used
// after the call.
func PutSolverState(st *SolverState) { statePool.Put(st) }

// Reset clears all decision-relevant state (the saved LP basis and the
// counters) so a recycled state drives exactly the same covers as a fresh
// one; only scratch capacity survives pooling.
func (st *SolverState) Reset() {
	st.ar.ws.InvalidateBasis()
	st.GreedySeeds = 0
}

// warmFromGreedy turns the greedy cover just computed in the arena into a
// candidate-selection vector for the set-cover ILP. The greedy cover is
// feasible by construction, so verification in the MIP layer only fails if
// the safety-net path emitted a non-candidate box (index -1).
func (st *SolverState) warmFromGreedy(ar *coverArena, nc int) ([]float64, bool) {
	if len(ar.gIdx) == 0 {
		return nil, false
	}
	st.warmX = growFloats(st.warmX, nc)
	x := st.warmX[:nc]
	clear(x)
	for _, ci := range ar.gIdx {
		if ci < 0 || ci >= nc {
			return nil, false
		}
		x[ci] = 1
	}
	st.GreedySeeds++
	return x, true
}

func (o Options) withDefaults() Options {
	if o.MaxILPCandidates == 0 {
		// Beyond a few hundred candidate columns the ILP set cover
		// stops paying for itself against greedy; dense frames fall
		// back (the paper's OR-Tools backend has the same structure with a
		// faster LP core, so its threshold is higher, not absent).
		o.MaxILPCandidates = 700
	}
	if o.MaxCoverPoints == 0 {
		o.MaxCoverPoints = 4096
	}
	if o.MIP.TimeLimit == 0 {
		o.MIP.TimeLimit = time.Second
	}
	if o.MIP.MaxNodes == 0 {
		o.MIP.MaxNodes = 300
	}
	return o
}

// SolveStats reports the ILP solver cost of a cover. All fields are zero
// when the greedy path ran (no candidates, ForceGreedy, or budget fallback).
type SolveStats struct {
	Nodes     int           // branch-and-bound nodes explored
	Iters     int           // simplex iterations across all nodes
	Gap       float64       // bound - incumbent when the solve stopped early
	PivotWall time.Duration // wall time spent inside LP solves
	// Warm-start and LP anomaly accounting (flight-recorder signals).
	WarmAttempted  bool // a warm candidate was offered to the solver
	WarmAccepted   bool // the candidate verified feasible
	RefactorAlarms int  // LP refactorizations forced by a tiny pivot (not the routine eta budget)
	RepairFails    int  // dual-repair attempts that went cold
	// Fallback reports that the optimizing cover was not attempted or not
	// used for a capacity reason: the candidate count exceeded
	// MaxILPCandidates or the ILP solve failed. ForceGreedy is a
	// deliberate configuration, and the grid path above MaxCoverPoints is
	// the designed method for dense frames; neither is a fallback.
	Fallback bool
}

// Cover returns a set of w x h rectangles covering every input point, the
// method that produced it, and an error for degenerate inputs. Every point
// appears in exactly one cluster's Members (assigned to the first covering
// rectangle in output order), while rectangles may spatially overlap.
func Cover(pts []geo.Point2, w, h float64, opt Options) ([]Cluster, Method, error) {
	cs, method, _, err := CoverStats(pts, w, h, opt)
	return cs, method, err
}

// CoverStats is Cover plus the ILP solver statistics, for callers that
// surface per-frame solver cost (the simulator trace).
func CoverStats(pts []geo.Point2, w, h float64, opt Options) ([]Cluster, Method, SolveStats, error) {
	if w <= 0 || h <= 0 {
		return nil, 0, SolveStats{}, fmt.Errorf("cluster: rectangle %v x %v must be positive", w, h)
	}
	if len(pts) == 0 {
		return nil, MethodILP, SolveStats{}, nil
	}
	opt = opt.withDefaults()

	var ar *coverArena
	if opt.State != nil {
		// Pinned arena: the MIP/LP workspaces persist across frames so the
		// saved simplex basis can warm the next cover's relaxations.
		ar = opt.State.ar
	} else {
		ar = getCoverArena()
		defer putCoverArena(ar)
	}

	if opt.MaxCoverPoints > 0 && len(pts) > opt.MaxCoverPoints {
		return assign(pts, gridCover(ar, pts, w, h)), MethodGrid, SolveStats{}, nil
	}

	cands := candidates(ar, pts, w, h)
	greedyBoxes := greedyCover(ar, pts, cands)
	method := MethodGreedy
	boxes := greedyBoxes
	var stats SolveStats
	if !opt.ForceGreedy {
		if len(cands) <= opt.MaxILPCandidates {
			mo := opt.MIP
			if st := opt.State; st != nil {
				mo.ReuseBasis = true
				if wx, ok := st.warmFromGreedy(ar, len(cands)); ok {
					mo.WarmStart = wx
				}
			}
			ilpBoxes, st, ok := ilpCover(ar, pts, cands, mo)
			stats = st
			if ok && len(ilpBoxes) <= len(greedyBoxes) {
				boxes = ilpBoxes
				method = MethodILP
			} else if !ok {
				stats.Fallback = true
			}
		} else {
			stats.Fallback = true
		}
	}
	return assign(pts, boxes), method, stats, nil
}

// gridCover buckets points into a fixed grid of w x h cells anchored at
// the origin and emits one rectangle per non-empty cell, in row-major
// (y, then x) cell order. Every point lands in exactly one cell and every
// cell rectangle covers its cell, so the cover is feasible by
// construction; assign then recenters each box on its members' bounding
// box (which fits, since members span at most one cell). Linear in the
// point count, no candidate bitsets -- the only cover path that is
// practical at 10^5..10^6 points per frame.
func gridCover(ar *coverArena, pts []geo.Point2, w, h float64) []geo.Rect {
	keys := growInt64s(ar.gridKeys, len(pts))
	ar.gridKeys = keys
	for i, p := range pts {
		cx := int64(math.Floor(p.X / w))
		cy := int64(math.Floor(p.Y / h))
		// Bias the x half so int64 ordering is (cy, cx) ascending.
		keys[i] = cy<<32 | ((cx + 1<<31) & 0xffffffff)
	}
	slices.Sort(keys)
	boxes := ar.gBoxes[:0]
	defer func() { ar.gBoxes = boxes }()
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		cy := k >> 32
		cx := (k & 0xffffffff) - 1<<31
		x0, y0 := float64(cx)*w, float64(cy)*h
		boxes = append(boxes, geo.Rect{Min: geo.Point2{X: x0, Y: y0}, Max: geo.Point2{X: x0 + w, Y: y0 + h}})
	}
	return boxes
}

// candidate is a rectangle placement plus the bitset of points it covers.
type candidate struct {
	box  geo.Rect
	mask []uint64
}

func maskWords(n int) int { return (n + 63) / 64 }

func setBit(mask []uint64, i int)      { mask[i/64] |= 1 << (uint(i) % 64) }
func hasBit(mask []uint64, i int) bool { return mask[i/64]&(1<<(uint(i)%64)) != 0 }
func subsetOf(a, b []uint64) bool {
	for k := range a {
		if a[k]&^b[k] != 0 {
			return false
		}
	}
	return true
}

// candidates enumerates canonical rectangle placements: left edge at some
// point's x, bottom edge at some point's y (restricted to y-values of points
// within the x-span, which preserves optimality), deduplicated by covered
// set and pruned of dominated placements. All working sets, including the
// candidate masks, are carved from the arena; candidates are only valid
// until the arena is released.
func candidates(ar *coverArena, pts []geo.Point2, w, h float64) []candidate {
	n := len(pts)
	words := maskWords(n)
	order := growInts(ar.order, n)
	ar.order = order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(pts[a].X, pts[b].X) })

	ar.maskOff = 0
	seen := ar.seenMap()
	out := ar.cands[:0]
	const eps = 1e-9
	for _, i := range order {
		x0 := pts[i].X
		// Points within the x-span [x0, x0+w].
		span := ar.span[:0]
		for _, j := range order {
			if pts[j].X >= x0-eps && pts[j].X <= x0+w+eps {
				span = append(span, j)
			}
		}
		ar.span = span
		for _, j := range span {
			y0 := pts[j].Y
			box := geo.Rect{Min: geo.Point2{X: x0, Y: y0}, Max: geo.Point2{X: x0 + w, Y: y0 + h}}
			mask := ar.newMask(words)
			any := false
			for _, k := range span {
				if pts[k].Y >= y0-eps && pts[k].Y <= y0+h+eps {
					setBit(mask, k)
					any = true
				}
			}
			if !any {
				ar.dropMask(words)
				continue
			}
			key := maskHash(mask)
			if fi, hit := seen[key]; hit {
				if masksEqual(out[fi].mask, mask) {
					ar.dropMask(words)
					continue
				}
				// Hash collision between distinct masks: keep the candidate
				// (dedup is only an optimization) and leave the map entry.
			} else {
				seen[key] = len(out)
			}
			out = append(out, candidate{box: box, mask: mask})
		}
	}
	// Dominance pruning: drop candidates whose covered set is a strict
	// subset of another's. Quadratic, so only for moderate counts.
	if len(out) <= 1500 {
		keep := growBools(ar.keep, len(out))
		ar.keep = keep
		for i := range keep {
			keep[i] = true
		}
		for i := range out {
			if !keep[i] {
				continue
			}
			for j := range out {
				if i == j || !keep[j] {
					continue
				}
				if subsetOf(out[j].mask, out[i].mask) && !subsetOf(out[i].mask, out[j].mask) {
					keep[j] = false
				}
			}
		}
		pruned := out[:0]
		for i, c := range out {
			if keep[i] {
				pruned = append(pruned, c)
			}
		}
		out = pruned
	}
	ar.cands = out
	return out
}

// greedyCover picks the candidate covering the most uncovered points until
// all are covered. Candidates always include a singleton for every point,
// so the loop terminates. The returned boxes live in arena scratch; the
// chosen candidate indices are recorded in ar.gIdx (-1 for safety-net
// boxes) so the greedy cover can seed the ILP's warm start.
func greedyCover(ar *coverArena, pts []geo.Point2, cands []candidate) []geo.Rect {
	n := len(pts)
	covered := growUints(ar.covered, maskWords(n))
	ar.covered = covered
	clear(covered)
	remaining := n
	boxes := ar.gBoxes[:0]
	idx := ar.gIdx[:0]
	defer func() { ar.gBoxes, ar.gIdx = boxes, idx }()
	for remaining > 0 {
		best, bestGain := -1, 0
		for ci, c := range cands {
			gain := 0
			for k := range c.mask {
				gain += popcount(c.mask[k] &^ covered[k])
			}
			if gain > bestGain {
				bestGain = gain
				best = ci
			}
		}
		if best < 0 {
			// Unreachable given canonical candidates; cover leftovers with
			// per-point rectangles as a safety net.
			for i := 0; i < n; i++ {
				if !hasBit(covered, i) {
					boxes = append(boxes, geo.NewRectCentered(pts[i], 1, 1))
					idx = append(idx, -1)
					setBit(covered, i)
					remaining--
				}
			}
			break
		}
		boxes = append(boxes, cands[best].box)
		idx = append(idx, best)
		for k := range covered {
			newBits := cands[best].mask[k] &^ covered[k]
			covered[k] |= newBits
			remaining -= popcount(newBits)
		}
	}
	return boxes
}

func popcount(x uint64) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// ilpCover solves the set-cover ILP: minimize the number of selected
// candidates subject to every point being covered at least once. The
// problem shell, constraint rows, and solver state all come from the arena;
// the returned boxes live in arena scratch.
func ilpCover(ar *coverArena, pts []geo.Point2, cands []candidate, opts mip.Options) ([]geo.Rect, SolveStats, bool) {
	n := len(pts)
	nc := len(cands)
	p := &ar.prob
	p.C = growFloats(p.C, nc)
	p.Lower = growFloats(p.Lower, nc)
	p.Upper = growFloats(p.Upper, nc)
	p.Integer = growBools(p.Integer, nc)
	for j := 0; j < nc; j++ {
		p.C[j] = -1 // maximize -count == minimize count
		p.Lower[j] = 0
		p.Upper[j] = 1
		p.Integer[j] = true
	}
	// Cover rows are emitted in CSR form: one >= row per point listing the
	// candidates that cover it. An uncoverable point aborts mid-build;
	// that is safe because the next use of the arena problem starts with
	// its own ResetSparseRows.
	p.ResetSparseRows()
	for i := 0; i < n; i++ {
		any := false
		for j, c := range cands {
			if hasBit(c.mask, i) {
				p.Coef(j, 1)
				any = true
			}
		}
		if !any {
			return nil, SolveStats{}, false
		}
		p.EndRow(lp.GE, 1)
	}
	sol, err := ar.ws.SolveOpts(p, opts)
	stats := SolveStats{Nodes: sol.Nodes, Iters: sol.Iters, Gap: sol.Gap, PivotWall: sol.PivotWall,
		WarmAttempted: sol.WarmAttempted, WarmAccepted: sol.WarmAccepted,
		RefactorAlarms: sol.RefactorAlarms, RepairFails: sol.RepairFails}
	if err != nil || (sol.Status != mip.StatusOptimal && sol.Status != mip.StatusFeasible) {
		return nil, stats, false
	}
	boxes := ar.iBoxes[:0]
	for j, v := range sol.X {
		if math.Round(v) >= 1 {
			boxes = append(boxes, cands[j].box)
		}
	}
	ar.iBoxes = boxes
	return boxes, stats, true
}

// assign maps each point to the first covering rectangle, producing the
// final clusters. Rectangles covering no points (possible after ILP ties)
// are dropped. Each kept rectangle is then recentered on its members'
// bounding-box midpoint: canonical cover candidates touch points with
// their lower-left corner, but the capture should aim at the middle of
// the clustered targets (Fig. 7) so edge targets get maximal margin
// against pointing error and target motion.
func assign(pts []geo.Point2, boxes []geo.Rect) []Cluster {
	clusters := make([]Cluster, len(boxes))
	for i := range boxes {
		clusters[i].Box = boxes[i]
	}
	for pi, p := range pts {
		for bi := range clusters {
			if clusters[bi].Box.Contains(p) {
				clusters[bi].Members = append(clusters[bi].Members, pi)
				break
			}
		}
	}
	out := clusters[:0]
	for _, c := range clusters {
		if len(c.Members) == 0 {
			continue
		}
		lo := pts[c.Members[0]]
		hi := lo
		for _, m := range c.Members[1:] {
			p := pts[m]
			lo.X, lo.Y = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y)
			hi.X, hi.Y = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y)
		}
		mid := geo.Point2{X: (lo.X + hi.X) / 2, Y: (lo.Y + hi.Y) / 2}
		c.Box = geo.NewRectCentered(mid, c.Box.Width(), c.Box.Height())
		out = append(out, c)
	}
	return out
}

// Validate checks that clusters jointly cover all points exactly once and
// that every member lies inside its cluster's box. It is used by tests and
// by the simulator's self-checks.
func Validate(pts []geo.Point2, clusters []Cluster) error {
	seen := make([]bool, len(pts))
	for ci, c := range clusters {
		for _, m := range c.Members {
			if m < 0 || m >= len(pts) {
				return fmt.Errorf("cluster %d: member %d out of range", ci, m)
			}
			if seen[m] {
				return fmt.Errorf("cluster %d: point %d assigned twice", ci, m)
			}
			seen[m] = true
			if !c.Box.Contains(pts[m]) {
				return fmt.Errorf("cluster %d: point %d (%v) outside box %v", ci, m, pts[m], c.Box)
			}
		}
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("point %d uncovered", i)
		}
	}
	return nil
}
