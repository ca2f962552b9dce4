package sched

import (
	"cmp"
	"math"
	"slices"

	"eagleeye/internal/geo"
)

// polish improves a feasible schedule without changing the scheduling
// algorithm's structural decisions:
//
//  1. re-time: each follower's capture sequence is shifted to its earliest
//     feasible times (optimal for a fixed order by an exchange argument),
//     recovering slack that the ILP's slot discretization leaves behind; and
//  2. insert: uncovered targets are greedily inserted into sequence
//     positions where the suffix can still be re-timed feasibly.
//
// The result is always feasible and never worth less than the input. This
// is how the implementation bridges the gap between the paper's
// continuous-time ILP formulation (OR-Tools) and our discretized one; the
// ablation bench BenchmarkAblationPolish quantifies the step. All working
// sets come from the arena so the per-frame polish pass stays off the heap.
func polish(ar *ilpArena, p *Problem, s *Schedule) {
	byID := ar.byIDMap(p)
	covered := ar.coveredSet()
	for _, seq := range s.Captures {
		for _, c := range seq {
			covered[c.TargetID] = true
		}
	}

	// Pass 1: earliest re-timing per follower. The re-time is kept as
	// the follower's base for pass 2; an order that cannot be re-timed
	// keeps its original times.
	bases := ar.polishBases(len(s.Captures))
	for fi, seq := range s.Captures {
		b := &bases[fi]
		b.retime(p, p.Followers[fi], seq, byID)
		if b.k == len(seq) {
			for i := range seq {
				seq[i].Time = b.t[i]
			}
		}
	}

	// Pass 2: greedy insertion of uncovered targets, most valuable first.
	uncovered := ar.uncovered[:0]
	for _, t := range p.Targets {
		if !covered[t.ID] && t.Value > 0 {
			uncovered = append(uncovered, t)
		}
	}
	ar.uncovered = uncovered
	slices.SortFunc(uncovered, func(a, b Target) int {
		if a.Value != b.Value {
			return cmp.Compare(b.Value, a.Value)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for _, tgt := range uncovered {
		for fi := range s.Captures {
			if tryInsert(ar, p, p.Followers[fi], &s.Captures[fi], fi, tgt, &bases[fi], byID) {
				covered[tgt.ID] = true
				break
			}
		}
	}

	// Recompute value over distinct targets.
	ar.ids = appendCapturedIDs(ar.ids[:0], s)
	s.Value = sumValues(ar.ids, byID)
}

// polishBase is one follower's earliest re-time of its current capture
// sequence, the state every insertion trial starts from. It stays valid
// until an insert into the follower succeeds.
type polishBase struct {
	valid bool
	// k is the first index whose earliest time misses its window (n when
	// the whole sequence re-times); t[:k] are the earliest times.
	k int
	t []float64
	// aim, w0 and w1 are each capture's aim point and imaging window. A
	// capture whose target is unknown or has no window gets the empty
	// window [+Inf, -Inf].
	aim    []geo.Point2
	w0, w1 []float64
	// sufMin[i] is min(w1[i:]), with sufMin[n] = +Inf: no capture at or
	// after i may be taken later than this.
	sufMin []float64
}

// retime computes b for seq: the earliest feasible time of every capture,
// in order, starting from the follower's boresight at t = 0, up to the
// first capture whose window it misses.
func (b *polishBase) retime(p *Problem, f Follower, seq []Capture, byID map[int]Target) {
	n := len(seq)
	b.t = growAmortized(b.t, n)
	b.aim = growAmortized(b.aim, n)
	b.w0 = growAmortized(b.w0, n)
	b.w1 = growAmortized(b.w1, n)
	b.sufMin = growAmortized(b.sufMin, n+1)
	for i, c := range seq {
		b.aim[i], b.w0[i], b.w1[i] = geo.Point2{}, math.Inf(1), math.Inf(-1)
		if tgt, ok := byID[c.TargetID]; ok {
			if w0, w1, ok := p.Window(f, tgt); ok {
				b.aim[i], b.w0[i], b.w1[i] = tgt.Pos, w0, w1
			}
		}
	}
	b.sufMin[n] = math.Inf(1)
	for i := n - 1; i >= 0; i-- {
		b.sufMin[i] = min(b.w1[i], b.sufMin[i+1])
	}
	t, aim := 0.0, f.Boresight
	b.k = n
	for i := range seq {
		arr, ok := arrive(p, f, aim, t, b.aim[i], b.w0[i], b.w1[i])
		if !ok {
			b.k = i
			break
		}
		b.t[i] = arr
		t, aim = arr, b.aim[i]
	}
	b.valid = true
}

// arrive returns the earliest time in [w0, w1] at which follower f, aiming
// at from at time t, can be aiming at to, and false when that time falls
// after w1.
func arrive(p *Problem, f Follower, from geo.Point2, t float64, to geo.Point2, w0, w1 float64) (float64, bool) {
	if w1 < w0 {
		return 0, false // unknown target or no window
	}
	arr := p.EarliestArrival(f, from, t, to)
	if arr < w0 {
		arr = w0
	}
	return arr, !(arr > w1)
}

// tryInsert inserts tgt at the first position of seq where the whole
// sequence remains feasible after earliest re-timing, and returns whether
// one exists. It gives exactly the result of re-timing every trial sequence
// from t = 0, without doing so:
//
//   - the prefix before pos re-times to b.t[:pos], so a trial starts from
//     the state after capture pos-1, and positions past b.k inherit the
//     base's failure;
//   - times never decrease along a sequence, so once b.t[pos-1] is past
//     tgt's window every later position fails too, and a trial fails as
//     soon as a time exceeds the earliest window end still ahead of it;
//   - once a suffix capture re-times to bit-for-bit its base time, the
//     rest of the trial replays the base: feasible exactly when the base
//     is, at the base's times.
//
// Only a successful insert allocates, copying out to a fresh slice.
func tryInsert(ar *ilpArena, p *Problem, f Follower, seq *[]Capture, fi int, tgt Target, b *polishBase, byID map[int]Target) bool {
	w0, w1, ok := p.Window(f, tgt)
	if !ok {
		return false
	}
	cur := *seq
	if !b.valid {
		b.retime(p, f, cur, byID)
	}
	n := len(cur)
positions:
	for pos := 0; pos <= b.k; pos++ {
		t, aim := 0.0, f.Boresight
		if pos > 0 {
			t, aim = b.t[pos-1], b.aim[pos-1]
		}
		if t > w1 {
			break
		}
		arr, ok := arrive(p, f, aim, t, tgt.Pos, w0, w1)
		if !ok || arr > b.sufMin[pos] {
			continue
		}
		// Re-time the suffix behind the new capture until it fails or
		// converges onto the base (conv is the first base-timed index).
		times := growAmortized(ar.times, n+1-pos)
		ar.times = times
		times[0] = arr
		t, aim = arr, tgt.Pos
		conv := n
		for j := pos; j < n; j++ {
			tj, fits := arrive(p, f, aim, t, b.aim[j], b.w0[j], b.w1[j])
			if !fits || tj > b.sufMin[j] {
				continue positions
			}
			if j < b.k && math.Float64bits(tj) == math.Float64bits(b.t[j]) {
				if b.k < n {
					continue positions
				}
				conv = j
				break
			}
			times[1+j-pos] = tj
			t, aim = tj, b.aim[j]
		}
		out := make([]Capture, n+1)
		copy(out, cur[:pos])
		copy(out[pos+1:], cur[pos:])
		for i := 0; i < pos; i++ {
			out[i].Time = b.t[i]
		}
		out[pos] = Capture{TargetID: tgt.ID, Time: arr, Follower: fi, Aim: tgt.Pos}
		for j := pos; j < n; j++ {
			if j < conv {
				out[j+1].Time = times[1+j-pos]
			} else {
				out[j+1].Time = b.t[j]
			}
		}
		*seq = out
		b.valid = false
		return true
	}
	return false
}
