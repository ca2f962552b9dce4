// Command benchlp benchmarks the simplex solver on generated
// solver-shaped instances (internal/lp's ScaleInstances, built from
// GenSchedLP and GenCoverLP) and writes machine-readable measurement
// points, so the solver's scale behaviour is recorded alongside the code
// (BENCH_lp.json).
//
// Points up to schema 1 also timed the dense tableau engine that has
// since been retired to a test oracle; its agreement with the production
// engine on the -quick set is asserted by internal/lp's
// TestScaleSetAgreement (make bench-scale-smoke). -quick restricts the run
// to those small instances.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"eagleeye/internal/lp"
)

// pointSchema versions the point layout for downstream consumers of the
// BENCH_lp.json series. Bump it whenever a field changes meaning. Schema 2
// dropped the dense-engine fields (dense_ns, speedup, dense_iters) and
// added refactor_alarms.
const pointSchema = 2

// point is one instance measurement: the solve time and solver counters
// plus the instance's shape.
type point struct {
	Schema    int    `json:"schema"`
	Name      string `json:"name"`
	Date      string `json:"date"`
	Commit    string `json:"commit,omitempty"`
	GoVersion string `json:"go"`

	Vars int `json:"vars"`
	Rows int `json:"rows"`
	NNZ  int `json:"nnz"`

	SparseNs    int64   `json:"sparse_ns"`
	Objective   float64 `json:"objective"`
	SparseIters int     `json:"sparse_iters"`

	Factorizations   int `json:"factorizations"`
	Refactorizations int `json:"refactorizations"`
	RefactorAlarms   int `json:"refactor_alarms"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		out   = flag.String("out", "", "append JSON points to this file ('' means stdout only)")
		quick = flag.Bool("quick", false, "small instances only (CI smoke)")
	)
	flag.Parse()

	var f *os.File
	if *out != "" {
		var err error
		f, err = os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchlp:", err)
			os.Exit(1)
		}
		defer f.Close()
	}

	date := time.Now().UTC().Format(time.RFC3339)
	commit := gitCommit()
	for _, inst := range lp.ScaleInstances(*quick) {
		p := inst.Gen()
		if err := p.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "benchlp: %s: %v\n", inst.Name, err)
			os.Exit(1)
		}

		var ws lp.Workspace
		start := time.Now()
		sol := ws.Solve(p)
		ns := time.Since(start).Nanoseconds()
		if sol.Status != lp.StatusOptimal {
			fmt.Fprintf(os.Stderr, "benchlp: %s: status %v\n", inst.Name, sol.Status)
			os.Exit(1)
		}

		pt := point{
			Schema:           pointSchema,
			Name:             inst.Name,
			Date:             date,
			Commit:           commit,
			GoVersion:        runtime.Version(),
			Vars:             len(p.C),
			Rows:             len(p.B),
			NNZ:              p.NNZ(),
			SparseNs:         ns,
			Objective:        sol.Objective,
			SparseIters:      sol.Iters,
			Factorizations:   ws.Factorizations,
			Refactorizations: ws.Refactorizations,
			RefactorAlarms:   ws.RefactorAlarms,
		}
		enc, err := json.Marshal(pt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchlp:", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
		if f != nil {
			if _, err := fmt.Fprintln(f, string(enc)); err != nil {
				fmt.Fprintln(os.Stderr, "benchlp:", err)
				os.Exit(1)
			}
		}
	}
}
