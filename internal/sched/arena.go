package sched

import (
	"slices"
	"sync"

	"eagleeye/internal/mip"
)

// ilpArena is the per-solve scratch of the ILP scheduler: the model slices,
// the constraint-row arena, the MIP workspace, and the polish/extract
// working sets. The simulator runs one Schedule call per frame for tens of
// thousands of frames, so this is what keeps the scheduler's steady state
// allocation-free. Arenas are pooled (ILP is a value type shared across
// worker goroutines); an arena is owned by exactly one solve at a time and
// nothing in a returned Schedule aliases it.
type ilpArena struct {
	mip   mip.Workspace
	prob  mip.Problem
	model ilpModel
	// rowsValid marks prob's bounds and constraint rows as emitted for
	// the topology last built in this arena (see emitRows).
	rowsValid bool

	targets []Target
	nodes   []slotNode
	edges   []ilpEdge

	// Flat adjacency storage: srcEdges/inEdges/outEdges inner slices are
	// carved from adj; the outer slices are reused.
	adj      []int
	deg      []int
	srcEdges [][]int
	inEdges  [][]int
	outEdges [][]int

	// seenTgt/seenGen implement the per-node successor-target dedup without
	// a map per node: seenTgt[ti] == seenGen means "already linked for the
	// node being expanded".
	seenTgt []int
	seenGen int

	// DAG branch-and-bound scratch (see dag.go): per-node label pairs
	// and slot weights, per-target branching and visit
	// counts, the per-target slot lists, the DFS stack, and the current
	// and incumbent paths as edge lists.
	dagLab   []dagLabel
	dagW     []float64
	valSlot  []int
	visits   []int
	valued   []int
	slotOff  []int
	slotFill []int
	slotList []int
	dagStack []dagFrame
	dagPath  []int
	dagInc   []int
	dagX     []float64

	// extract and polish scratch. bases caches each follower's re-time;
	// times holds a trial insertion's re-timed suffix (see polish.go).
	nodeSeen  []bool
	ids       []int
	byID      map[int]Target
	covered   map[int]bool
	uncovered []Target
	bases     []polishBase
	times     []float64
	rem       []Target
	taken     map[int]bool
}

// growSeen sizes the successor-dedup stamps for nz targets. New entries are
// zero, which never matches a generation (generations start at 1).
func (a *ilpArena) growSeen(nz int) {
	if cap(a.seenTgt) < nz {
		a.seenTgt = make([]int, nz)
		return
	}
	a.seenTgt = a.seenTgt[:nz]
}

// nextGen returns a fresh stamp generation.
func (a *ilpArena) nextGen() int {
	a.seenGen++
	return a.seenGen
}

// takenSet returns the arena's taken-ID set, emptied.
func (a *ilpArena) takenSet() map[int]bool {
	if a.taken == nil {
		a.taken = make(map[int]bool)
	} else {
		clear(a.taken)
	}
	return a.taken
}

// appendCapturedIDs appends every captured target ID (with repeats) to ids.
func appendCapturedIDs(ids []int, s *Schedule) []int {
	for _, seq := range s.Captures {
		for _, c := range seq {
			ids = append(ids, c.TargetID)
		}
	}
	return ids
}

var ilpArenas = sync.Pool{New: func() any { return new(ilpArena) }}

func getILPArena() *ilpArena  { return ilpArenas.Get().(*ilpArena) }
func putILPArena(a *ilpArena) { ilpArenas.Put(a) }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growAmortized returns s resized to n, reallocating with append's
// headroom: polish's buffers grow by one capture per insert, and an exact
// fit would reallocate on every one.
func growAmortized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// polishBases returns n follower re-time caches for polish's pass 1 to
// fill. The caches keep their buffers across solves.
func (a *ilpArena) polishBases(n int) []polishBase {
	if cap(a.bases) < n {
		a.bases = make([]polishBase, n)
	}
	a.bases = a.bases[:n]
	return a.bases
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growIntSlices(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	return s[:n]
}

// byIDMap returns the arena's id -> Target map rebuilt for p.
func (a *ilpArena) byIDMap(p *Problem) map[int]Target {
	if a.byID == nil {
		a.byID = make(map[int]Target, len(p.Targets))
	} else {
		clear(a.byID)
	}
	for _, t := range p.Targets {
		a.byID[t.ID] = t
	}
	return a.byID
}

// coveredSet returns the arena's covered-ID set, emptied.
func (a *ilpArena) coveredSet() map[int]bool {
	if a.covered == nil {
		a.covered = make(map[int]bool)
	} else {
		clear(a.covered)
	}
	return a.covered
}

// sumValues adds up byID values over the distinct IDs of ids (which it
// sorts in place), in ascending-ID order -- the same summation order as
// Schedule.CoveredIDs-based accounting, so float results are bit-identical.
func sumValues(ids []int, byID map[int]Target) float64 {
	insertionSortInts(ids)
	total := 0.0
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			continue
		}
		total += byID[id].Value
	}
	return total
}

// insertionSortInts sorts small ID lists without the sort.Sort interface
// boxing; capture lists are at most a few dozen entries.
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
