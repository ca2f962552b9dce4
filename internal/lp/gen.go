package lp

import (
	"math"
	"math/rand"
)

// Scale-harness instance generators. These build LPs with the exact row
// shapes the EagleEye pipeline emits -- the scheduler's time-expanded
// flow (GenSchedLP) and the clusterer's set cover (GenCoverLP) -- at
// sizes the real pipeline only reaches at 100k-target constellation
// scale. The scale benchmarks (cmd/benchlp, BenchmarkSparseSchedShaped)
// and the differential tests against the dense oracle use them; nothing
// in the production path does.

// ScaleInstance is one named scale-harness instance.
type ScaleInstance struct {
	Name string
	Gen  func() *Problem
}

// ScaleInstances returns the cmd/benchlp instance set. quick keeps only
// the small instances, the ones the dense test oracle also solves in
// seconds (the scale-set agreement test and CI smoke use them).
func ScaleInstances(quick bool) []ScaleInstance {
	set := []ScaleInstance{
		{"lp/sched_2k", func() *Problem { return GenSchedLP(100, 4, 6, 4, 1) }},
		{"lp/cover_500", func() *Problem { return GenCoverLP(350, 500, 4, 1) }},
	}
	if !quick {
		set = append(set,
			ScaleInstance{"lp/sched_6k", func() *Problem { return GenSchedLP(200, 4, 8, 5, 1) }},
			ScaleInstance{"lp/sched_21k", func() *Problem { return GenSchedLP(400, 3, 24, 6, 1) }},
		)
	}
	return set
}

// GenSchedLP builds a sched-shaped LP: a time-expanded flow network of
// `slots` layers with `perSlot` target nodes each, every node reaching
// `succ` random successors in the next layer, and `followers` units of
// flow injected at a super-source. Variables are the flow edges
// (unbounded above, tiny negative slot-indexed cost -- the PR 5 tie-break
// encoding) followed by one cover variable per node (bounds [0,1],
// positive value), and every row is <=:
//
//	in(v) <= 1                  node capacity
//	out(v) - in(v) <= 0         flow conservation
//	sum(source edges) <= F      fleet size
//	z_v - in(v) <= 0            cover only visited nodes
//
// Rows are emitted in CSR form; a perSlot*slots ~ 1000-node instance with
// succ=20 has ~20k variables and ~3k rows at ~0.2% density.
func GenSchedLP(perSlot, slots, succ, followers int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	nodes := perSlot * slots
	type edge struct{ from, to int32 } // from < 0 marks the super-source
	edges := make([]edge, 0, perSlot+nodes*succ)
	in := make([][]int32, nodes)  // node -> incoming edge vars
	out := make([][]int32, nodes) // node -> outgoing edge vars
	addEdge := func(from, to int) {
		id := int32(len(edges))
		edges = append(edges, edge{int32(from), int32(to)})
		in[to] = append(in[to], id)
		if from >= 0 {
			out[from] = append(out[from], id)
		}
	}
	for i := 0; i < perSlot; i++ {
		addEdge(-1, i)
	}
	for t := 0; t < slots-1; t++ {
		for i := 0; i < perSlot; i++ {
			v := t*perSlot + i
			for s := 0; s < succ; s++ {
				addEdge(v, (t+1)*perSlot+rng.Intn(perSlot))
			}
		}
	}
	ne := len(edges)
	n := ne + nodes // edge vars then cover vars
	p := &Problem{
		C:     make([]float64, n),
		Upper: make([]float64, n),
	}
	for id, e := range edges {
		slot := int(e.to) / perSlot
		p.C[id] = -1e-6 - 1e-8*float64(slot)
		p.Upper[id] = math.Inf(1) // flow edges stay unbounded (PR 5 invariant)
	}
	for v := 0; v < nodes; v++ {
		p.C[ne+v] = 0.5 + rng.Float64()
		p.Upper[ne+v] = 1
	}
	p.ResetSparseRows()
	for v := 0; v < nodes; v++ {
		for _, id := range in[v] {
			p.Coef(int(id), 1)
		}
		p.EndRow(LE, 1)
		if len(out[v]) > 0 {
			for _, id := range out[v] {
				p.Coef(int(id), 1)
			}
			for _, id := range in[v] {
				p.Coef(int(id), -1)
			}
			p.EndRow(LE, 0)
		}
		p.Coef(ne+v, 1)
		for _, id := range in[v] {
			p.Coef(int(id), -1)
		}
		p.EndRow(LE, 0)
	}
	for id := 0; id < perSlot; id++ {
		p.Coef(id, 1)
	}
	p.EndRow(LE, float64(followers))
	return p
}

// GenCoverLP builds the LP relaxation of a cluster-shaped set cover:
// `sets` candidate clusters in [0,1], each covering ~`density` random
// points, and one >= row per point -- so phase 1 and artificial eviction
// run at scale. Every point is covered by at least one set. The objective
// minimizes total cost (stated as maximization of its negation).
func GenCoverLP(points, sets, density int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	covers := make([][]int32, points)
	for s := 0; s < sets; s++ {
		k := 1 + rng.Intn(2*density)
		for c := 0; c < k; c++ {
			pt := rng.Intn(points)
			covers[pt] = append(covers[pt], int32(s))
		}
	}
	p := &Problem{
		C:     make([]float64, sets),
		Upper: make([]float64, sets),
	}
	for s := 0; s < sets; s++ {
		p.C[s] = -(1 + rng.Float64())
		p.Upper[s] = 1
	}
	p.ResetSparseRows()
	for pt := 0; pt < points; pt++ {
		if len(covers[pt]) == 0 {
			covers[pt] = append(covers[pt], int32(rng.Intn(sets)))
		}
		seen := make(map[int32]bool, len(covers[pt]))
		for _, s := range covers[pt] {
			if seen[s] {
				continue
			}
			seen[s] = true
			p.Coef(int(s), 1)
		}
		p.EndRow(GE, 1)
	}
	return p
}
