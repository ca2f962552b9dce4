package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eagleeye/internal/geo"
)

func pt(x, y float64) geo.Point2 { return geo.Point2{X: x, Y: y} }

func TestEmptyInput(t *testing.T) {
	cs, _, err := Cover(nil, 10, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Errorf("clusters = %d, want 0", len(cs))
	}
}

func TestBadRect(t *testing.T) {
	if _, _, err := Cover([]geo.Point2{pt(0, 0)}, 0, 5, Options{}); err == nil {
		t.Error("zero width accepted")
	}
	if _, _, err := Cover([]geo.Point2{pt(0, 0)}, 5, -1, Options{}); err == nil {
		t.Error("negative height accepted")
	}
}

func TestSinglePoint(t *testing.T) {
	pts := []geo.Point2{pt(3, 4)}
	cs, method, err := Cover(pts, 10, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Fatalf("clusters = %d, want 1", len(cs))
	}
	if method != MethodILP {
		t.Errorf("method = %v", method)
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

func TestTwoNearbyPointsOneRect(t *testing.T) {
	pts := []geo.Point2{pt(0, 0), pt(5, 5)}
	cs, _, err := Cover(pts, 10, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Errorf("clusters = %d, want 1 (both fit in one 10x10 box)", len(cs))
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

func TestTwoFarPointsTwoRects(t *testing.T) {
	pts := []geo.Point2{pt(0, 0), pt(100, 100)}
	cs, _, err := Cover(pts, 10, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Errorf("clusters = %d, want 2", len(cs))
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

func TestClusterChainNeedsTwo(t *testing.T) {
	// Three points in a row, 8 apart: (0,0), (8,0), (16,0) with a 10-wide
	// box. One box covers at most two adjacent points; optimal = 2.
	pts := []geo.Point2{pt(0, 0), pt(8, 0), pt(16, 0)}
	cs, method, err := Cover(pts, 10, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Errorf("clusters = %d, want 2", len(cs))
	}
	if method != MethodILP {
		t.Errorf("method = %v, want ILP", method)
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

// TestILPBeatsGreedyCase is the classic set-cover instance where greedy is
// suboptimal: the ILP must find the smaller cover.
func TestILPAtMostGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(30)
		pts := make([]geo.Point2, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*100, rng.Float64()*100)
		}
		ilpCS, m1, err := Cover(pts, 25, 25, Options{})
		if err != nil {
			t.Fatal(err)
		}
		greedyCS, m2, err := Cover(pts, 25, 25, Options{ForceGreedy: true})
		if err != nil {
			t.Fatal(err)
		}
		if m2 != MethodGreedy {
			t.Fatalf("forced greedy reported %v", m2)
		}
		if m1 == MethodILP && len(ilpCS) > len(greedyCS) {
			t.Errorf("trial %d: ILP cover %d larger than greedy %d", trial, len(ilpCS), len(greedyCS))
		}
		if err := Validate(pts, ilpCS); err != nil {
			t.Errorf("trial %d ilp: %v", trial, err)
		}
		if err := Validate(pts, greedyCS); err != nil {
			t.Errorf("trial %d greedy: %v", trial, err)
		}
	}
}

// bruteForceMinCover finds the true minimum cover size by enumerating
// candidate subsets (exponential; tiny inputs only).
func bruteForceMinCover(t *testing.T, pts []geo.Point2, w, h float64) int {
	t.Helper()
	cands := candidates(new(coverArena), pts, w, h)
	n := len(pts)
	best := n + 1
	var rec func(i int, mask []uint64, used int)
	full := make([]uint64, maskWords(n))
	for i := 0; i < n; i++ {
		setBit(full, i)
	}
	isFull := func(m []uint64) bool {
		for k := range m {
			if m[k] != full[k] {
				return false
			}
		}
		return true
	}
	rec = func(i int, mask []uint64, used int) {
		if used >= best {
			return
		}
		if isFull(mask) {
			best = used
			return
		}
		if i >= len(cands) {
			return
		}
		// Include candidate i.
		nm := make([]uint64, len(mask))
		for k := range mask {
			nm[k] = mask[k] | cands[i].mask[k]
		}
		rec(i+1, nm, used+1)
		rec(i+1, mask, used)
	}
	rec(0, make([]uint64, maskWords(n)), 0)
	return best
}

func TestILPOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(5)
		pts := make([]geo.Point2, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*40, rng.Float64()*40)
		}
		want := bruteForceMinCover(t, pts, 15, 15)
		cs, method, err := Cover(pts, 15, 15, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if method != MethodILP {
			t.Fatalf("trial %d: method %v", trial, method)
		}
		if len(cs) != want {
			t.Errorf("trial %d: ILP cover %d, brute force %d (pts %v)", trial, len(cs), want, pts)
		}
	}
}

func TestCoverPropertyAlwaysValid(t *testing.T) {
	f := func(seed int64, nSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSeed%40) + 1
		pts := make([]geo.Point2, n)
		for i := range pts {
			pts[i] = pt(rng.Float64()*90000-45000, rng.Float64()*90000-45000)
		}
		cs, _, err := Cover(pts, 10000, 10000, Options{})
		if err != nil {
			return false
		}
		return Validate(pts, cs) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLargeInputFallsBackToGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 120
	pts := make([]geo.Point2, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*100000, rng.Float64()*100000)
	}
	cs, method, err := Cover(pts, 10000, 10000, Options{MaxILPCandidates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodGreedy {
		t.Errorf("method = %v, want greedy fallback", method)
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geo.Point2{pt(1, 1), pt(1, 1), pt(1, 1)}
	cs, _, err := Cover(pts, 5, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Errorf("clusters = %d, want 1", len(cs))
	}
	if len(cs[0].Members) != 3 {
		t.Errorf("members = %d, want 3", len(cs[0].Members))
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	pts := []geo.Point2{pt(0, 0), pt(50, 50)}
	// Missing coverage.
	cs := []Cluster{{Box: geo.NewRectCentered(pt(0, 0), 10, 10), Members: []int{0}}}
	if err := Validate(pts, cs); err == nil {
		t.Error("uncovered point not detected")
	}
	// Member outside box.
	cs = []Cluster{
		{Box: geo.NewRectCentered(pt(0, 0), 10, 10), Members: []int{0, 1}},
	}
	if err := Validate(pts, cs); err == nil {
		t.Error("outside member not detected")
	}
	// Double assignment.
	cs = []Cluster{
		{Box: geo.NewRectCentered(pt(0, 0), 10, 10), Members: []int{0}},
		{Box: geo.NewRectCentered(pt(0, 0), 10, 10), Members: []int{0}},
	}
	if err := Validate(pts, cs); err == nil {
		t.Error("double assignment not detected")
	}
	// Out of range member.
	cs = []Cluster{{Box: geo.NewRectCentered(pt(0, 0), 10, 10), Members: []int{7}}}
	if err := Validate(pts, cs); err == nil {
		t.Error("out-of-range member not detected")
	}
}

func TestCenterAimPoint(t *testing.T) {
	c := Cluster{Box: geo.Rect{Min: pt(0, 0), Max: pt(10, 20)}}
	if c.Center() != pt(5, 10) {
		t.Errorf("center = %v", c.Center())
	}
}

func TestMethodString(t *testing.T) {
	if MethodILP.String() != "ilp" || MethodGreedy.String() != "greedy" || MethodGrid.String() != "grid" {
		t.Error("method strings wrong")
	}
}

// ilpBudgetWorld builds n pairwise-distant points, each needing its own
// box, so the candidate set is exactly n singleton placements and the
// MaxILPCandidates boundary can be pinned precisely.
func ilpBudgetWorld(n int) []geo.Point2 {
	pts := make([]geo.Point2, n)
	for i := range pts {
		pts[i] = pt(float64(i)*1e6, float64(i%3)*1e6)
	}
	return pts
}

func TestILPCandidateBudgetBoundary(t *testing.T) {
	const n = 12
	pts := ilpBudgetWorld(n)

	// Exactly at budget: the ILP runs and no fallback is recorded.
	cs, method, stats, err := CoverStats(pts, 10, 10, Options{MaxILPCandidates: n})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodILP {
		t.Errorf("at budget: method = %v, want ilp", method)
	}
	if stats.Fallback {
		t.Error("at budget: fallback recorded")
	}
	if stats.Nodes == 0 && stats.Iters == 0 {
		t.Error("at budget: no solver activity recorded")
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}

	// One over budget: greedy runs instead and the fallback is counted.
	cs, method, stats, err = CoverStats(pts, 10, 10, Options{MaxILPCandidates: n - 1})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodGreedy {
		t.Errorf("over budget: method = %v, want greedy", method)
	}
	if !stats.Fallback {
		t.Error("over budget: fallback not counted in SolveStats")
	}
	if stats.Nodes != 0 || stats.Iters != 0 {
		t.Errorf("over budget: solver ran anyway: %+v", stats)
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}

	// ForceGreedy is a deliberate configuration, not a fallback.
	_, method, stats, err = CoverStats(pts, 10, 10, Options{ForceGreedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodGreedy || stats.Fallback {
		t.Errorf("force-greedy: method=%v fallback=%v", method, stats.Fallback)
	}
}

func TestGridCoverDenseFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 5000
	pts := make([]geo.Point2, n)
	for i := range pts {
		pts[i] = pt(rng.Float64()*200000-100000, rng.Float64()*200000-100000)
	}
	cs, method, stats, err := CoverStats(pts, 400, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodGrid {
		t.Fatalf("method = %v, want grid above MaxCoverPoints", method)
	}
	if stats.Fallback {
		t.Error("grid path counted as a fallback; it is the designed dense-frame method")
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}

	// Deterministic: a second cover of the same frame is identical.
	cs2, _, _, err := CoverStats(pts, 400, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != len(cs2) {
		t.Fatalf("grid cover not deterministic: %d vs %d clusters", len(cs), len(cs2))
	}
	for i := range cs {
		if cs[i].Box != cs2[i].Box || len(cs[i].Members) != len(cs2[i].Members) {
			t.Fatalf("grid cover not deterministic at cluster %d", i)
		}
	}

	// MaxCoverPoints < 0 disables the cap: the same frame goes down the
	// candidate path (greedy here, over any plausible ILP budget).
	_, method, _, err = CoverStats(pts[:64], 400, 400, Options{MaxCoverPoints: 32})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodGrid {
		t.Errorf("small frame above explicit cap: method = %v, want grid", method)
	}
	_, method, _, err = CoverStats(pts[:64], 400, 400, Options{MaxCoverPoints: -1})
	if err != nil {
		t.Fatal(err)
	}
	if method == MethodGrid {
		t.Error("negative cap still took the grid path")
	}
}

func TestGridCoverNegativeCoordinates(t *testing.T) {
	// Points straddling the origin: cell ownership must floor, not
	// truncate toward zero, or boxes on either side of an axis collide.
	pts := []geo.Point2{pt(-5, -5), pt(5, 5), pt(-5, 5), pt(5, -5)}
	cs, method, _, err := CoverStats(pts, 8, 8, Options{MaxCoverPoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodGrid {
		t.Fatalf("method = %v", method)
	}
	if len(cs) != 4 {
		t.Errorf("clusters = %d, want 4 (one per quadrant)", len(cs))
	}
	if err := Validate(pts, cs); err != nil {
		t.Error(err)
	}
}

func BenchmarkCover50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point2, 50)
	for i := range pts {
		pts[i] = pt(rng.Float64()*100000, rng.Float64()*100000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Cover(pts, 10000, 10000, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
