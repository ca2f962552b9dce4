package sched

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPolish is the quadratic polish the incremental one replaced, kept as
// the differential oracle: pass 1 re-times each follower from t = 0, and
// every insertion trial re-times the whole trial sequence from t = 0.
func refPolish(p *Problem, s *Schedule) {
	byID := targetByID(p)
	covered := make(map[int]bool)
	for _, seq := range s.Captures {
		for _, c := range seq {
			covered[c.TargetID] = true
		}
	}
	for fi := range s.Captures {
		refRetime(p, p.Followers[fi], s.Captures[fi], byID)
	}
	var uncovered []Target
	for _, t := range p.Targets {
		if !covered[t.ID] && t.Value > 0 {
			uncovered = append(uncovered, t)
		}
	}
	slices.SortFunc(uncovered, func(a, b Target) int {
		if a.Value != b.Value {
			return cmp.Compare(b.Value, a.Value)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for _, tgt := range uncovered {
		for fi := range s.Captures {
			if refTryInsert(p, p.Followers[fi], &s.Captures[fi], fi, tgt, byID) {
				covered[tgt.ID] = true
				break
			}
		}
	}
	s.Value = sumValues(appendCapturedIDs(nil, s), byID)
}

// refRetime rewrites seq to its earliest feasible times, or returns false
// and leaves seq untouched when the order cannot be re-timed.
func refRetime(p *Problem, f Follower, seq []Capture, byID map[int]Target) bool {
	times := make([]float64, len(seq))
	t := 0.0
	aim := f.Boresight
	for i, c := range seq {
		tgt, ok := byID[c.TargetID]
		if !ok {
			return false
		}
		w0, w1, ok := p.Window(f, tgt)
		if !ok {
			return false
		}
		arr := p.EarliestArrival(f, aim, t, tgt.Pos)
		if arr < w0 {
			arr = w0
		}
		if arr > w1 {
			return false
		}
		times[i] = arr
		t, aim = arr, tgt.Pos
	}
	for i := range seq {
		seq[i].Time = times[i]
	}
	return true
}

// refTryInsert tries tgt at every position of seq in turn, re-timing each
// whole trial sequence, and keeps the first feasible one.
func refTryInsert(p *Problem, f Follower, seq *[]Capture, fi int, tgt Target, byID map[int]Target) bool {
	cur := *seq
	for pos := 0; pos <= len(cur); pos++ {
		trial := make([]Capture, 0, len(cur)+1)
		trial = append(trial, cur[:pos]...)
		trial = append(trial, Capture{TargetID: tgt.ID, Follower: fi, Aim: tgt.Pos})
		trial = append(trial, cur[pos:]...)
		if refRetime(p, f, trial, byID) {
			*seq = trial
			return true
		}
	}
	return false
}

// Polish-case flags: each selects one feature of the generated instance.
const (
	polishShuffle   = 1 << iota // reverse one sequence, so pass 1 fails
	polishNoWindow              // schedule a target that has no window
	polishSameAim               // two targets share one aim point
	polishHorizon               // clamp windows with Env.HorizonS
	polishFromILP               // start from the unpolished ILP schedule
	polishUnknownID             // schedule a target the problem lacks
)

// polishCase builds a problem and an unpolished input schedule for it. By
// default each follower gets a random subset of the targets in window
// order, leaving the rest for pass 2 to insert; flags add the features
// above.
func polishCase(seed int64, n, nf, flags uint8) (*Problem, Schedule) {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + int(n)%30
	targets := make([]Target, m)
	for i := range targets {
		targets[i] = Target{
			ID:    i + 1,
			Pos:   pt(rng.Float64()*160e3-80e3, 20e3+rng.Float64()*110e3),
			Value: 0.5 + float64(rng.Intn(4))/4, // ties exercise the ID order
		}
	}
	if flags&polishNoWindow != 0 {
		targets[m-1].Pos.X = 120e3 // beyond the ~92 km cross-track reach
	}
	if flags&polishSameAim != 0 {
		targets[1].Pos = targets[0].Pos
	}
	p := frameProblem(targets, 1+int(nf)%3)
	if flags&polishHorizon != 0 {
		p.Env.HorizonS = 6 + rng.Float64()*8
	}
	var in Schedule
	if flags&polishFromILP != 0 {
		var err error
		if in, err = (ILP{DisablePolish: true}).Schedule(p); err != nil {
			panic(err)
		}
	} else {
		in.Captures = make([][]Capture, len(p.Followers))
		for _, i := range rng.Perm(m) {
			if rng.Intn(3) == 0 {
				continue // left for pass 2
			}
			fi := rng.Intn(len(p.Followers))
			tgt := targets[i]
			in.Captures[fi] = append(in.Captures[fi], Capture{TargetID: tgt.ID, Follower: fi, Aim: tgt.Pos})
		}
		for fi, seq := range in.Captures {
			f := p.Followers[fi]
			mid := func(c Capture) float64 {
				w0, w1, _ := p.Window(f, targets[c.TargetID-1])
				return (w0 + w1) / 2
			}
			slices.SortStableFunc(seq, func(a, b Capture) int { return cmp.Compare(mid(a), mid(b)) })
			for i := range seq {
				seq[i].Time = mid(seq[i])
			}
		}
	}
	fi := rng.Intn(len(in.Captures))
	seq := &in.Captures[fi]
	if flags&polishShuffle != 0 {
		slices.Reverse(*seq)
	}
	if flags&polishNoWindow != 0 {
		tgt := targets[m-1]
		pos := rng.Intn(len(*seq) + 1)
		*seq = slices.Insert(*seq, pos, Capture{TargetID: tgt.ID, Follower: fi, Aim: tgt.Pos})
	}
	if flags&polishUnknownID != 0 {
		pos := rng.Intn(len(*seq) + 1)
		*seq = slices.Insert(*seq, pos, Capture{TargetID: 1000, Follower: fi, Aim: pt(0, 50e3)})
	}
	return p, in
}

// cloneSchedule deep-copies the capture sequences of s.
func cloneSchedule(s Schedule) Schedule {
	out := s
	out.Captures = make([][]Capture, len(s.Captures))
	for fi, seq := range s.Captures {
		out.Captures[fi] = slices.Clone(seq)
	}
	return out
}

// checkPolishVsReference polishes a copy of in both ways and requires the
// same captures, in the same order, at bit-identical times, with a
// bit-identical value.
func checkPolishVsReference(t *testing.T, p *Problem, in Schedule) (ref Schedule) {
	t.Helper()
	ref = cloneSchedule(in)
	refPolish(p, &ref)
	got := cloneSchedule(in)
	polish(new(ilpArena), p, &got)
	if math.Float64bits(got.Value) != math.Float64bits(ref.Value) {
		t.Fatalf("value %v, reference %v", got.Value, ref.Value)
	}
	for fi := range ref.Captures {
		g, r := got.Captures[fi], ref.Captures[fi]
		if len(g) != len(r) {
			t.Fatalf("follower %d: %d captures, reference %d", fi, len(g), len(r))
		}
		for i := range r {
			if g[i].TargetID != r[i].TargetID || g[i].Follower != r[i].Follower || g[i].Aim != r[i].Aim ||
				math.Float64bits(g[i].Time) != math.Float64bits(r[i].Time) {
				t.Fatalf("follower %d capture %d: %+v, reference %+v", fi, i, g[i], r[i])
			}
		}
	}
	return ref
}

// polishSeeds are FuzzPolishVsReference's seed corpus. Each names the
// feature it must exercise; TestPolishSeedsExercise holds them to it.
var polishSeeds = []struct {
	seed              int64
	n, nf, flags      uint8
	failsPass1        bool // some follower's input order cannot be re-timed
	noWindow, sameAim bool
	horizon           bool // HorizonS clamps a window
	midInsert         bool // an interior insert, then another into that follower
}{
	{seed: 1, n: 12, flags: polishShuffle, failsPass1: true},
	{seed: 2, n: 20, nf: 1, flags: polishNoWindow, noWindow: true},
	{seed: 3, n: 16, flags: polishSameAim, sameAim: true},
	{seed: 4, n: 25, flags: polishHorizon, horizon: true},
	{seed: 112, n: 16, flags: 0, midInsert: true},
	{seed: 6, n: 28, nf: 2, flags: polishFromILP},
	{seed: 7, n: 18, flags: polishFromILP | polishHorizon, horizon: true},
	{seed: 8, n: 22, nf: 1, flags: polishShuffle | polishNoWindow | polishUnknownID, failsPass1: true, noWindow: true},
	// A trial converges onto the base of a follower whose pass 1 fails,
	// so it must fail rather than adopt the base's times.
	{seed: 58, n: 15, nf: 1, flags: polishShuffle | polishHorizon | polishFromILP, failsPass1: true, horizon: true},
}

// FuzzPolishVsReference is the differential test of the incremental polish
// against the quadratic one it replaced: schedules, capture times and
// values must match bit for bit.
func FuzzPolishVsReference(f *testing.F) {
	for _, s := range polishSeeds {
		f.Add(s.seed, s.n, s.nf, s.flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, nf, flags uint8) {
		p, in := polishCase(seed, n, nf, flags)
		checkPolishVsReference(t, p, in)
	})
}

// TestPolishSeedsExercise checks that every seed of FuzzPolishVsReference
// reaches the feature it is there for.
func TestPolishSeedsExercise(t *testing.T) {
	for _, s := range polishSeeds {
		p, in := polishCase(s.seed, s.n, s.nf, s.flags)
		ref := checkPolishVsReference(t, p, in)
		byID := targetByID(p)
		var failsPass1, noWindow, sameAim, horizon, midInsert bool
		for fi, seq := range in.Captures {
			f := p.Followers[fi]
			if !refRetime(p, f, slices.Clone(seq), byID) {
				failsPass1 = true
			}
			inSeq := make(map[int]bool)
			for _, c := range seq {
				inSeq[c.TargetID] = true
				if tgt, ok := byID[c.TargetID]; ok {
					if _, _, ok := p.Window(f, tgt); !ok {
						noWindow = true
					}
				}
			}
			inserted, interior := 0, false
			for i, c := range ref.Captures[fi] {
				if !inSeq[c.TargetID] {
					inserted++
					interior = interior || (i > 0 && i < len(ref.Captures[fi])-1)
				}
			}
			midInsert = midInsert || (interior && inserted >= 2)
		}
		seen := make(map[[2]float64]bool)
		for _, tgt := range p.Targets {
			key := [2]float64{tgt.Pos.X, tgt.Pos.Y}
			sameAim = sameAim || seen[key]
			seen[key] = true
			for _, f := range p.Followers {
				unclamped := *p
				unclamped.Env.HorizonS = 0
				_, w1, ok := unclamped.Window(f, tgt)
				horizon = horizon || (p.Env.HorizonS > 0 && ok && w1 > p.Env.HorizonS)
			}
		}
		for _, c := range []struct {
			name      string
			want, got bool
		}{
			{"failing pass-1 re-time", s.failsPass1, failsPass1},
			{"capture without a window", s.noWindow, noWindow},
			{"shared aim point", s.sameAim, sameAim},
			{"horizon clamp", s.horizon, horizon},
			{"interior insert then reuse", s.midInsert, midInsert},
		} {
			if c.want && !c.got {
				t.Errorf("seed %d: no %s", s.seed, c.name)
			}
		}
	}
}
