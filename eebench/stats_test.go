package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	s := sortedCopy(seq(100)) // 1..100
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {50.5, 51}, {83, 83}, {99, 99}, {100, 100}, {120, 100},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(sortedCopy(seq(5)), 50); got != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median 1..5 = %v", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median 1..4 = %v", got)
	}
}

// The tail is the highest nearest-rank percentile with at least ten
// samples beyond it.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10, 0, false},  // no percentile leaves ten samples beyond it
		{19, 0, false},  // p50 is rank 10: only nine beyond
		{20, 50, true},  // p50 is rank 10: ten beyond
		{60, 83, true},  // p83 is rank 50; p84 would be rank 51
		{120, 91, true}, // p91 is rank 110; p92 would be rank 111
		{1000, 99, true},
	} {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: tail p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if beyond := c.n - int(v); beyond < minBeyondTail {
			t.Errorf("n=%d: tail %v leaves %d beyond", c.n, v, beyond)
		}
		// One percentile higher must leave fewer than ten beyond.
		if next := p + 1; p < 99 && c.n-rankOf(c.n, next) >= minBeyondTail {
			t.Errorf("n=%d: p%v also leaves ten beyond; tail p%v is not the highest", c.n, next, p)
		}
	}
}
