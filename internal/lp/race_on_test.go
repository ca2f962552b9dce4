//go:build race

package lp

// raceEnabled reports whether the race detector is active; it slows the
// dense oracle's scale-set solves ~20x, so that test skips under -race.
const raceEnabled = true
