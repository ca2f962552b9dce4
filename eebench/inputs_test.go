package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestFixedSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range workloadNames() {
		o := options{workload: w, seed: 7, seconds: 20 * time.Second}
		a, b := inputDigest(o), inputDigest(o)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs: %s vs %s", w, a, b)
		}
	}
	// The seed must reach the inputs of the workloads it orders.
	for _, w := range []string{"serve-mixed"} {
		a := inputDigest(options{workload: w, seed: 1, seconds: 20 * time.Second})
		b := inputDigest(options{workload: w, seed: 2, seconds: 20 * time.Second})
		if a == b {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w)
		}
	}
}

// Every scenario appears equally often in each block of a serve-mixed
// plan, and exactly one session in serveContinuousEvery is continuous.
func TestServePlanIsBalanced(t *testing.T) {
	pool, plan := serveInputs(3, 9*serveContinuousEvery*2)
	counts := make([]int, len(pool))
	continuous := 0
	for _, p := range plan {
		counts[p.scenario]++
		if p.continuous {
			continuous++
		}
	}
	for k, c := range counts {
		if c != 2*serveContinuousEvery {
			t.Errorf("scenario %v appears %d times, want %d", pool[k], c, 2*serveContinuousEvery)
		}
	}
	if continuous != len(plan)/serveContinuousEvery {
		t.Errorf("%d continuous sessions of %d", continuous, len(plan))
	}
}

// BENCHMARK.json and the program must name the same metrics with the same
// units, in the same order.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists workloads %v, the program %v", names, workloadNames())
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", n)
		}
	}
}
