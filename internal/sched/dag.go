package sched

import (
	"math"
	"slices"
)

// Single-follower models are solved without the LP. With one follower the
// time-expanded flow ILP asks for one path from the follower's source
// through the slot graph, worth its edge costs plus the value of every
// DISTINCT target it visits; nodes are sorted by time and every edge runs
// from a lower node index to a higher one, so the graph is a DAG and the
// longest path is one forward pass. The pass may count a target's value
// on more than one visit, so it is an upper bound on the ILP: if its best
// path counts each target once, that path is optimal. Otherwise the
// search branches on a target j the path counted twice. Child s collects
// j's value at slot s only; j's other slots stay routable but are worth
// nothing. Every path is covered by some child with a bound no lower than
// its true value (the child of one slot it visits, or any child if it
// never visits j), and j can never be counted twice again below the
// branch, so the search is finite and exact for the ILP itself -- paths
// that revisit a target included. The pass already counts an immediate
// revisit (j -> k -> j) once (see dagEval), which halves the search on
// paper-scale frames. Search is depth-first with strict-'>' incumbent
// updates and no wall clock, so it is deterministic.

// dagNodeBudget bounds the longest-path passes of one DAG search. A
// search that has not closed within it is abandoned and the model goes to
// the LP branch-and-bound instead (see scheduleJoint). Paper-scale frames
// close in 1 to a few thousand passes; the budget is a constant, not an
// option, because it only guards against pathological instances.
const dagNodeBudget = 20000

// dagFrame is one open branching on the DFS stack.
type dagFrame struct {
	tgt   int     // branched target index
	next  int     // position in the target's slot list of the next child
	bound float64 // the parent's longest-path bound, caps every child
}

// solveDAG runs the DAG branch-and-bound on a single-follower model with
// at most budget longest-path passes. On success it returns an optimal
// solution of the model's ILP (edge and cover variables), its objective
// and the number of passes; ok is false when the budget ran out first.
// All scratch lives in the arena.
func (m *ilpModel) solveDAG(ar *ilpArena, budget int) (x []float64, obj float64, nodes int, ok bool) {
	nn, nz := len(m.nodes), len(m.targets)
	if cap(ar.dagLab) < 2*nn {
		ar.dagLab = make([]dagLabel, 2*nn)
	}
	ar.dagLab = ar.dagLab[:2*nn]
	ar.dagW = growFloats(ar.dagW, nn)
	ar.valSlot = growInts(ar.valSlot, nz)
	ar.visits = growInts(ar.visits, nz)
	ar.valued = growInts(ar.valued, nz)
	for j := range ar.valSlot {
		ar.valSlot[j] = -1
	}
	clear(ar.visits)
	clear(ar.valued)
	// Slot lists per target (node-index order), by counting sort.
	ar.slotOff = growInts(ar.slotOff, nz+1)
	clear(ar.slotOff)
	for _, v := range m.nodes {
		ar.slotOff[v.ti+1]++
	}
	for j := 0; j < nz; j++ {
		ar.slotOff[j+1] += ar.slotOff[j]
	}
	ar.slotList = growInts(ar.slotList, nn)
	ar.slotFill = growInts(ar.slotFill, nz)
	copy(ar.slotFill, ar.slotOff[:nz])
	for vi, v := range m.nodes {
		ar.slotList[ar.slotFill[v.ti]] = vi
		ar.slotFill[v.ti]++
	}

	inc := 0.0 // the empty path is always feasible
	ar.dagInc = ar.dagInc[:0]
	nodes = 1
	stack := ar.dagStack[:0]
	if b, br := m.dagEval(ar, &inc); br >= 0 && b > inc {
		stack = append(stack, dagFrame{tgt: br, bound: b})
	}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		lo, hi := ar.slotOff[fr.tgt], ar.slotOff[fr.tgt+1]
		if lo+fr.next == hi || fr.bound <= inc {
			ar.valSlot[fr.tgt] = -1
			stack = stack[:len(stack)-1]
			continue
		}
		if nodes >= budget {
			ar.dagStack = stack
			return nil, 0, nodes, false
		}
		ar.valSlot[fr.tgt] = ar.slotList[lo+fr.next]
		fr.next++
		nodes++
		if b, br := m.dagEval(ar, &inc); br >= 0 && b > inc {
			stack = append(stack, dagFrame{tgt: br, bound: b})
		}
	}
	ar.dagStack = stack

	nv := m.ne + nz
	ar.dagX = growFloats(ar.dagX, nv)
	x = ar.dagX
	clear(x)
	for _, e := range ar.dagInc {
		x[e] = 1
		x[m.ne+m.nodes[m.edges[e].to].ti] = 1
	}
	return x, inc, nodes, true
}

// negInf marks a node no path reaches under the current branching.
var negInf = math.Inf(-1)

// valuedSlot reports whether node v collects its target's value under the
// current branching: always, unless the target was branched onto a
// different slot.
func (m *ilpModel) valuedSlot(ar *ilpArena, v int) bool {
	s := ar.valSlot[m.nodes[v].ti]
	return s < 0 || s == v
}

// slotWeight is node v's value under the current branching.
func (m *ilpModel) slotWeight(ar *ilpArena, v int) float64 {
	if !m.valuedSlot(ar, v) {
		return 0
	}
	return m.prob.C[m.ne+m.nodes[v].ti]
}

// dagLabel is one longest-path label at a node: the path value, the
// target of the node before it (-1 from the source), and where it came
// from (predecessor edge and that node's label slot).
type dagLabel struct {
	val    float64
	prevTi int
	edge   int
	from   int8
}

// dagInsert offers a label to node v's pair: slot 0 holds the best label,
// slot 1 the best whose previous target differs from slot 0's.
func dagInsert(lab []dagLabel, v int, l dagLabel) {
	l0, l1 := &lab[2*v], &lab[2*v+1]
	switch {
	case l.val > l0.val:
		if l.prevTi != l0.prevTi {
			*l1 = *l0
		}
		*l0 = l
	case l.prevTi != l0.prevTi && l.val > l1.val:
		*l1 = l
	}
}

// twoCycle reports whether arriving at a slot of target ti from a label
// whose previous target is prevTi closes a two-cycle (ti -> k -> ti) on a
// target that is not branched: that visit's value was already counted
// two nodes back, so the pass counts it zero times.
func (ar *ilpArena) twoCycle(prevTi, ti int) bool {
	return prevTi == ti && ar.valSlot[ti] < 0
}

// dagEval runs one longest-path pass under the current branching. It
// offers the path to the incumbent at its true ILP value (distinct
// targets), and returns the pass's bound and a target the path counted
// more than once (-1 when the path is exact or the bound is pruned).
//
// The pass keeps two labels per node (the best, and the best arriving
// from a different target) so that it can count an immediate revisit
// j -> k -> j of an unbranched target once: the bound stays valid --
// every path's pass value is still at least its true value -- and the
// commonest revisit no longer needs branching.
func (m *ilpModel) dagEval(ar *ilpArena, inc *float64) (bound float64, branch int) {
	c := m.prob.C
	lab, w := ar.dagLab, ar.dagW
	for v := range m.nodes {
		lab[2*v] = dagLabel{val: negInf, prevTi: -2}
		lab[2*v+1] = dagLabel{val: negInf, prevTi: -2}
		w[v] = m.slotWeight(ar, v)
	}
	for _, e := range m.srcEdges[0] {
		v := m.edges[e].to
		dagInsert(lab, v, dagLabel{val: c[e] + w[v], prevTi: -1, edge: e, from: -1})
	}
	end := -1
	for u, nu := range m.nodes {
		l0 := lab[2*u]
		if l0.val == negInf {
			continue
		}
		if l0.val > bound {
			bound, end = l0.val, u
		}
		l1 := lab[2*u+1]
		for _, e := range m.outEdges[u] {
			v := m.edges[e].to
			ti := m.nodes[v].ti
			if !ar.twoCycle(l0.prevTi, ti) {
				dagInsert(lab, v, dagLabel{val: l0.val + c[e] + w[v], prevTi: nu.ti, edge: e})
				continue
			}
			dagInsert(lab, v, dagLabel{val: l0.val + c[e], prevTi: nu.ti, edge: e})
			if l1.val != negInf {
				dagInsert(lab, v, dagLabel{val: l1.val + c[e] + w[v], prevTi: nu.ti, edge: e, from: 1})
			}
		}
	}
	if end < 0 || bound <= *inc {
		return bound, -1
	}
	path := ar.dagPath[:0]
	for v, k := end, int8(0); v >= 0; {
		l := lab[2*v+int(k)]
		path = append(path, l.edge)
		v, k = m.edges[l.edge].from, l.from
	}
	slices.Reverse(path)
	ar.dagPath = path

	// True value in path order, summed exactly as the pass summed the
	// bound, so an exact path's value equals its bound bit for bit.
	// Alongside, count the visits the pass counted per target.
	val := 0.0
	branch = -1
	prevTi, ti := -1, -1
	for _, e := range path {
		v := m.edges[e].to
		prevTi, ti = ti, m.nodes[v].ti
		wt := 0.0
		if ar.visits[ti] == 0 {
			wt = c[m.ne+ti]
		}
		ar.visits[ti]++
		val = val + c[e] + wt
		if m.valuedSlot(ar, v) && !ar.twoCycle(prevTi, ti) {
			ar.valued[ti]++
			if ar.valued[ti] == 2 && (branch < 0 || c[m.ne+ti] > c[m.ne+branch]) {
				branch = ti
			}
		}
	}
	for _, e := range path {
		ti := m.nodes[m.edges[e].to].ti
		ar.visits[ti], ar.valued[ti] = 0, 0
	}
	if branch >= 0 {
		// Try the branched target's slots this path used first, in path
		// order: the DFS then meets good incumbents early.
		lo, hi := ar.slotOff[branch], ar.slotOff[branch+1]
		k := lo
		for _, e := range path {
			v := m.edges[e].to
			if m.nodes[v].ti != branch {
				continue
			}
			for q := k; q < hi; q++ {
				if ar.slotList[q] == v {
					ar.slotList[k], ar.slotList[q] = ar.slotList[q], ar.slotList[k]
					k++
					break
				}
			}
		}
	}
	if val > *inc {
		*inc = val
		ar.dagInc = append(ar.dagInc[:0], path...)
	}
	return bound, branch
}
