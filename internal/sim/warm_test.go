package sim

import (
	"bytes"
	"reflect"
	"testing"

	"eagleeye/internal/constellation"
)

// twoFollowerWorld is the benchmark world with two followers per group:
// its small joint models are the ones the scheduler still solves with the
// LP branch-and-bound (single-follower models go to the exact DAG search,
// which does no LP work), so the LP warm-start gates run here.
func twoFollowerWorld() Config {
	return Config{
		Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 12, FollowersPerGroup: 2},
		App:           smallWorld(2000, 60), DurationS: 2 * 3600, Seed: 1,
	}
}

// TestWarmStartResultIdentity is the simulator half of the warm-start
// contract: for the same configuration, a warm run (cross-frame solver
// state, projection, crash-basis seeding, LP basis reuse) must produce a
// byte-identical Result and trace stream to a cold run -- only the
// solver-load and timing fields may differ. The scheduler objective's
// slot-time tie-break (see sched.edgeCost) is what makes this hold: each
// frame's optimum is unique, so the warm pivot path cannot land on a
// different tie-optimal schedule. On the world whose schedules run on the
// LP the warm run must also do measurably less solver work; the
// single-follower worlds must do no LP work at all (the DAG search
// solves every frame).
func TestWarmStartResultIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	cases := []struct {
		name string
		cfg  Config
		lp   bool // schedules run on the LP branch-and-bound
	}{
		{"benchmark-shape", Config{
			Constellation: constellation.Config{Kind: constellation.LeaderFollower, Satellites: 8},
			App:           smallWorld(2000, 60), DurationS: 2 * 3600, Seed: 1,
		}, false},
		{"mix-camera", Config{
			Constellation: constellation.Config{Kind: constellation.MixCamera, Satellites: 4},
			App:           smallWorld(1200, 61), DurationS: 2 * 3600, Seed: 9,
		}, false},
		{"two-followers", twoFollowerWorld(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var coldTr, warmTr bytes.Buffer
			cold := tc.cfg
			cold.Workers = 1
			cold.DisableWarmStart = true
			cold.Trace = &coldTr
			warm := tc.cfg
			warm.Workers = 1
			warm.Trace = &warmTr
			cr := run(t, cold)
			wr := run(t, warm)
			if nc, nw := normalized(cr), normalized(wr); !reflect.DeepEqual(nc, nw) {
				t.Errorf("warm result diverges from cold:\n%+v\nvs\n%+v", nc, nw)
			}
			ct := decodeTrace(t, &coldTr)
			wt := decodeTrace(t, &warmTr)
			if !reflect.DeepEqual(ct, wt) {
				t.Errorf("warm trace diverges from cold: %d vs %d records", len(ct), len(wt))
			}
			if !tc.lp {
				if cr.SchedIters != 0 || wr.SchedIters != 0 {
					t.Errorf("single-follower world did LP work: cold %d warm %d iterations, want 0 (DAG search)", cr.SchedIters, wr.SchedIters)
				}
				if cr.SchedNodes == 0 {
					t.Error("single-follower world searched no DAG nodes")
				}
				return
			}
			// The warm run must also do less scheduling work. Node and
			// iteration counts are deterministic for a fixed seed at
			// Workers=1 (no wall-clock truncation on these small solves),
			// so a modest floor makes regressions visible without riding
			// the exact measured margin.
			coldWork := cr.SchedNodes + cr.SchedIters
			warmWork := wr.SchedNodes + wr.SchedIters
			if warmWork >= coldWork {
				t.Errorf("warm did no less sched work: %d vs cold %d", warmWork, coldWork)
			}
		})
	}
}

// TestWarmStartSolverSavings pins the acceptance-level savings of the LP
// warm start. The bar was first set as "warm sched B&B nodes + LP
// iterations at least 30% below cold" on the single-follower benchmark
// world, then restated as the absolute bound warm <= 149 when the sparse
// simplex made the cold solve itself cheaper. Single-follower models are
// now solved by the DAG search, which does no LP work, so the gate moved
// to the two-follower world, where the joint LP branch-and-bound still
// runs: 13 of its 14 solves are LP searches. Its bound is the warm work
// the LP scheduler did on that world before the DAG search existed (cold
// 178, warm 148); warm must also still beat cold on the same world. The
// counts are exact integers from deterministic solves, so this is stable
// across machines.
func TestWarmStartSolverSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation in -short mode")
	}
	const maxWarmWork = 148 // warm work on this world before the DAG search
	cfg := twoFollowerWorld()
	cfg.Workers = 1
	cold := cfg
	cold.DisableWarmStart = true
	cr := run(t, cold)
	wr := run(t, cfg)
	coldWork := cr.SchedNodes + cr.SchedIters
	warmWork := wr.SchedNodes + wr.SchedIters
	if coldWork == 0 || cr.SchedIters == 0 {
		t.Fatal("two-follower workload did no LP scheduling work")
	}
	t.Logf("sched nodes+iters: cold %d warm %d (%.1f%% saved)",
		coldWork, warmWork, 100*(1-float64(warmWork)/float64(coldWork)))
	if warmWork > maxWarmWork {
		t.Errorf("warm sched nodes+iters = %d, want <= %d (the warm work before the DAG search)",
			warmWork, maxWarmWork)
	}
	if warmWork >= coldWork {
		t.Errorf("warm sched nodes+iters = %d, want below cold %d", warmWork, coldWork)
	}
}
