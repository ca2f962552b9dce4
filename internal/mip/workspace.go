package mip

import (
	"math"
	"time"

	"eagleeye/internal/lp"
	"eagleeye/internal/obs"
)

// Workspace owns the branch-and-bound working state -- the base bounds, the
// node heap, the branch-bound arena, and the underlying LP workspace -- so
// repeated solves of similarly shaped problems (the scheduler solves one
// small MIP per simulation frame) reuse one set of allocations instead of
// rebuilding the LP arena every call. The zero value is ready to use.
//
// A Workspace is not safe for concurrent use. Solution.X is a fresh copy
// and stays valid across later solves on the same workspace.
type Workspace struct {
	lpws      lp.Workspace
	baseLower []float64
	baseUpper []float64
	heap      nodeHeap
	// bounds is the arena behind the branch nodes' bound vectors. Chunks
	// are carved monotonically during one solve; a chunk abandoned by
	// growth stays referenced by the live nodes that were carved from it,
	// and every node is dead by the time the offset resets at the next
	// solve.
	bounds    []float64
	boundsOff int
}

// InvalidateBasis discards the LP workspace's saved starting basis, making
// a pooled or handed-off workspace behave exactly like a fresh one.
func (w *Workspace) InvalidateBasis() { w.lpws.InvalidateBasis() }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// cloneBranch copies src into the bounds arena and applies the branch: a
// raised lower bound (isLower) or a lowered upper bound.
func (w *Workspace) cloneBranch(src []float64, j int, v float64, isLower bool) []float64 {
	n := len(src)
	if len(w.bounds)-w.boundsOff < n {
		sz := 256 * n
		if sz < 4096 {
			sz = 4096
		}
		w.bounds = make([]float64, sz)
		w.boundsOff = 0
	}
	dst := w.bounds[w.boundsOff : w.boundsOff+n : w.boundsOff+n]
	w.boundsOff += n
	copy(dst, src)
	if isLower {
		if v > dst[j] {
			dst[j] = v
		}
	} else if v < dst[j] {
		dst[j] = v
	}
	return dst
}

// SolveOpts optimizes the MIP by LP-based branch and bound with best-first
// node selection and most-fractional branching, reusing the workspace
// arenas across calls.
func (w *Workspace) SolveOpts(p *Problem, opts Options) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	opts = opts.withDefaults()
	n := len(p.C)

	w.baseLower = growF(w.baseLower, n)
	w.baseUpper = growF(w.baseUpper, n)
	for j := 0; j < n; j++ {
		w.baseLower[j] = lower(&p.Problem, j)
		w.baseUpper[j] = upper(&p.Problem, j)
	}
	w.boundsOff = 0

	deadline := time.Now().Add(opts.TimeLimit)
	heap := &w.heap
	heap.ns = heap.ns[:0]
	heap.push(node{lower: w.baseLower, upper: w.baseUpper, bound: math.Inf(1)})

	var (
		incumbent    []float64
		incumbentVal = math.Inf(-1)
		nodes        int
		stopped      bool
		anyOptimal   bool // some node LP solved to optimality
		sawLimit     bool // some node LP was abandoned (iter limit / numerics)
		stopBound    = math.Inf(-1)
		iters        int
		pivotWall    time.Duration

		warmOK     bool
		warmFloor  = math.Inf(-1) // pruning floor: slightly below the candidate's value
		warmPruned int
	)
	if opts.WarmStart != nil {
		var v float64
		if v, warmOK = verifyWarm(p, opts.WarmStart, opts.IntTol); warmOK {
			// The floor sits a feasibility tolerance below the candidate's
			// value: nodes pruned by it provably cannot hold a solution the
			// cold search would prefer, so warm solves return the same
			// result as cold ones.
			warmFloor = v - feasTol*(1+math.Abs(v))
		}
	}

	// One LP workspace serves every node: the LP arena is built once
	// and re-solved with mutated bounds, so the per-node m x total
	// allocation of the old path disappears. p was validated above, so the
	// workspace's validation-free solve is safe. Solution.X aliases the
	// workspace and is copied before being kept (roundIntegers copies).
	ws := &w.lpws
	if opts.Metrics != nil {
		ws.Obs = opts.Metrics.LP
	} else {
		ws.Obs = nil
	}
	ws.ReuseBasis = opts.ReuseBasis
	basisReuses0 := ws.BasisReuses
	alarms0 := ws.RefactorAlarms
	repair0 := ws.RepairFails
	if warmOK && opts.ReuseBasis {
		// Crash the root relaxation's basis at the warm candidate's vertex:
		// when no saved basis fits the root's LP shape (the common case
		// across simulation frames, whose models rarely repeat shapes), the
		// LP starts phase 2 from the candidate instead of running phase 1
		// from the all-slack corner. One-shot: children reuse the root's
		// saved basis through the ordinary path.
		ws.SeedPoint(opts.WarmStart)
	}
	work := lp.Problem{C: p.C, A: p.A, B: p.B, Senses: p.Senses,
		RowPtr: p.RowPtr, ColIdx: p.ColIdx, Vals: p.Vals}
	for heap.len() > 0 {
		if nodes >= opts.MaxNodes || time.Now().After(deadline) {
			stopped = true
			break
		}
		nd := heap.pop()
		// Plunge: follow one branch chain depth-first until it is pruned or
		// integral, pushing siblings onto the heap. Diving finds an
		// incumbent quickly so the best-first phase can prune aggressively.
		for plunge := true; plunge; {
			plunge = false
			cut := incumbentVal
			if warmFloor > cut {
				cut = warmFloor
			}
			if nd.bound <= cut+1e-9 {
				if cut > incumbentVal {
					warmPruned++ // the warm floor, not an incumbent, cut it
				}
				break // cannot improve
			}
			if nodes >= opts.MaxNodes || time.Now().After(deadline) {
				stopped = true
				// This node's bound stays valid for the gap computation even
				// though we never solved it.
				if nd.bound > stopBound {
					stopBound = nd.bound
				}
				break
			}
			nodes++
			work.Lower = nd.lower
			work.Upper = nd.upper
			start := time.Now()
			sol := ws.SolveMaxIters(&work, opts.MaxLPIters)
			pivotWall += time.Since(start)
			iters += sol.Iters
			switch sol.Status {
			case lp.StatusUnbounded:
				if nodes == 1 {
					out := Solution{Status: StatusUnbounded, Nodes: nodes, Iters: iters, PivotWall: pivotWall,
						WarmAttempted: opts.WarmStart != nil, WarmAccepted: warmOK,
						BasisReuses:    ws.BasisReuses - basisReuses0,
						RefactorAlarms: ws.RefactorAlarms - alarms0,
						RepairFails:    ws.RepairFails - repair0}
					recordSolve(opts.Metrics, &out)
					return out, nil
				}
				// An unbounded child of a bounded relaxation should not
				// occur; treat as a numeric failure of this node.
				sawLimit = true
				continue
			case lp.StatusIterLimit:
				sawLimit = true
				continue
			case lp.StatusInfeasible:
				continue
			}
			anyOptimal = true
			{
				cut := incumbentVal
				if warmFloor > cut {
					cut = warmFloor
				}
				if sol.Objective <= cut+1e-9 {
					if cut > incumbentVal {
						warmPruned++
					}
					break
				}
			}
			// Find the most fractional integer variable.
			branch := -1
			worst := opts.IntTol
			for j := 0; j < n; j++ {
				if p.Integer == nil || !p.Integer[j] {
					continue
				}
				f := sol.X[j] - math.Floor(sol.X[j])
				dist := math.Min(f, 1-f)
				if dist > worst {
					worst = dist
					branch = j
				}
			}
			if branch < 0 {
				// Integral within tolerance: candidate incumbent. Rounding
				// the near-integer components can push a tightly satisfied
				// row past its RHS, so the candidate is re-verified against
				// the constraints before it is installed.
				if cand, val := integralIncumbent(p, sol.X); val > incumbentVal {
					incumbentVal = val
					incumbent = cand
				}
				break
			}
			v := sol.X[branch]
			down := node{
				lower: nd.lower, // shared: only upper changes
				upper: w.cloneBranch(nd.upper, branch, math.Floor(v), false),
				bound: sol.Objective,
				depth: nd.depth + 1,
			}
			up := node{
				lower: w.cloneBranch(nd.lower, branch, math.Ceil(v), true),
				upper: nd.upper,
				bound: sol.Objective,
				depth: nd.depth + 1,
			}
			downOK := down.upper[branch] >= nd.lower[branch]-1e-12
			upOK := up.lower[branch] <= nd.upper[branch]+1e-12
			// Dive toward the nearer integer. (Diving toward the warm
			// incumbent's value instead was measured and rejected: on the
			// benchmark workload it steered the plunge away from the
			// LP-guided child and cost an extra node and ~45% more pivots
			// on the densest frame.)
			frac := v - math.Floor(v)
			diveDown := frac < 0.5
			switch {
			case downOK && upOK:
				if diveDown {
					nd = down
					heap.push(up)
				} else {
					nd = up
					heap.push(down)
				}
				plunge = true
			case downOK:
				nd = down
				plunge = true
			case upOK:
				nd = up
				plunge = true
			}
		}
	}

	out := Solution{Nodes: nodes, Iters: iters, PivotWall: pivotWall,
		WarmAttempted: opts.WarmStart != nil, WarmAccepted: warmOK,
		WarmPruned:     warmPruned,
		BasisReuses:    ws.BasisReuses - basisReuses0,
		RefactorAlarms: ws.RefactorAlarms - alarms0,
		RepairFails:    ws.RepairFails - repair0}
	switch {
	case incumbent != nil && !stopped:
		out.Status = StatusOptimal
		out.X = incumbent
		out.Objective = incumbentVal
	case incumbent != nil:
		out.Status = StatusFeasible
		out.X = incumbent
		out.Objective = incumbentVal
		// The proven upper bound at the moment the search stopped is the
		// max over the incumbent, the node in hand when the stop hit, and
		// every node still open on the heap -- not the root relaxation,
		// which goes stale as soon as the first branch tightens it.
		bound := math.Max(incumbentVal, stopBound)
		for i := range heap.ns {
			if b := heap.ns[i].bound; b > bound {
				bound = b
			}
		}
		out.Gap = bound - incumbentVal
	case stopped:
		out.Status = StatusLimit
	case anyOptimal:
		// LP relaxations solved but no integral point was found anywhere
		// in the fully-explored tree: the integer problem is infeasible.
		out.Status = StatusInfeasible
	case sawLimit:
		// No node ever solved to optimality and at least one was abandoned
		// at the simplex iteration limit: the search is inconclusive, not
		// proof of infeasibility.
		out.Status = StatusLimit
	default:
		out.Status = StatusInfeasible
	}
	recordSolve(opts.Metrics, &out)
	return out, nil
}

// recordSolve feeds one finished search's totals into m. It is a plain
// function (not a closure over the solve locals) so instrumented solves
// add no allocation to the per-frame path.
func recordSolve(m *obs.SolverMetrics, s *Solution) {
	if m == nil {
		return
	}
	m.Solves.Inc()
	m.Nodes.Add(int64(s.Nodes))
	m.Iters.Add(int64(s.Iters))
	m.PivotNS.Add(int64(s.PivotWall))
	if s.Status == StatusFeasible || s.Status == StatusLimit {
		m.Truncated.Inc()
	}
	if s.WarmAttempted {
		m.WarmAttempts.Inc()
		if s.WarmAccepted {
			m.WarmAccepted.Inc()
		} else {
			m.WarmRejected.Inc()
		}
	}
	if s.WarmPruned > 0 {
		m.WarmPruned.Add(int64(s.WarmPruned))
	}
	if s.BasisReuses > 0 {
		m.BasisReuses.Add(int64(s.BasisReuses))
	}
}
