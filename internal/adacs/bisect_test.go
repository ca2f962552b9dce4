package adacs

import (
	"math"
	"math/rand"
	"testing"

	"eagleeye/internal/geo"
)

// actuationTimeFullBisection is ActuationTimeS with its bisection run for
// all 80 iterations and no fixed-point exit: the reference the early exit
// must reproduce bit for bit.
func actuationTimeFullBisection(m SlewModel, sub1, p1, p2 geo.Point2, groundSpeedMS, altM float64) float64 {
	need := func(dt float64) float64 {
		sub2 := geo.Point2{X: sub1.X, Y: sub1.Y + groundSpeedMS*dt}
		return PointingAngleDeg(sub1, p1, sub2, p2, altM)
	}
	if need(0) < 1e-9 {
		return 0
	}
	lo, hi := 0.0, m.OverheadS+need(0)/m.RateDegS
	for i := 0; i < 60 && m.MaxAngDeg(hi) < need(hi); i++ {
		hi *= 2
		if hi > 1e4 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if m.MaxAngDeg(mid) >= need(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestActuationTimeFixedPointExitBitIdentical checks that leaving the
// Eq. 1 bisection at its fixed point returns exactly the bits of the full
// 80-iteration loop, over random geometries for the paper's wheel, the
// high-end wheel and a zero-overhead wheel, plus the zero-angle, the
// unreachable and the exact along-track (v*dt) cases.
func TestActuationTimeFixedPointExitBitIdentical(t *testing.T) {
	check := func(name string, m SlewModel, sub1, p1, p2 geo.Point2, v float64) float64 {
		t.Helper()
		got := ActuationTimeS(m, sub1, p1, p2, v, altM)
		want := actuationTimeFullBisection(m, sub1, p1, p2, v, altM)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s %+v: sub %v, %v -> %v: got %v (%#x), want %v (%#x)",
				name, m, sub1, p1, p2, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return got
	}
	models := []SlewModel{PaperSlew(), HighEndSlew(), {RateDegS: 3, OverheadS: 0}}
	rng := rand.New(rand.NewSource(14))
	for _, m := range models {
		for i := 0; i < 3000; i++ {
			sub := pt(rng.Float64()*40e3-20e3, rng.Float64()*200e3-150e3)
			p1 := pt(rng.Float64()*200e3-100e3, rng.Float64()*200e3-50e3)
			p2 := pt(rng.Float64()*200e3-100e3, rng.Float64()*200e3-50e3)
			if i%4 == 0 {
				// Short hops: the regime of dense frames.
				p2 = pt(p1.X+rng.Float64()*2e3-1e3, p1.Y+rng.Float64()*2e3-1e3)
			}
			check("random", m, sub, p1, p2, vGround)
		}
		sub, p := pt(0, -20e3), pt(12e3, 35e3)
		if dt := check("zero-angle", m, sub, p, p, 0); dt != 0 {
			t.Errorf("%+v: stationary same-target dt = %v, want 0", m, dt)
		}
		// A target displaced along-track by exactly v*dt is seen along the
		// same line of sight dt later: the required angle dips to zero.
		for _, dt := range []float64{0.25, 0.67, 1, 1.11, 3.5, 12} {
			check("along-track", m, sub, p, pt(p.X, p.Y+vGround*dt), vGround)
		}
	}
	// A wheel this slow cannot cover a wide repoint within the 1e4 s cap.
	slow := SlewModel{RateDegS: 1e-4, OverheadS: 0.67}
	if dt := check("unreachable", slow, pt(0, 0), pt(-80e3, 10e3), pt(80e3, 10e3), vGround); !math.IsInf(dt, 1) {
		t.Errorf("slow-wheel wide repoint dt = %v, want +Inf", dt)
	}
}
