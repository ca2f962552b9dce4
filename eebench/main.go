// Command eebench is the EagleEye benchmark: one process that runs one of
// three workloads for a fixed time, checks every output it produces, and
// prints its metrics by name with their units. See README.md for the
// workloads, every metric, and what each one is expected to move.
//
//	eebench --workload sim-ships --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer breakdown from a traced
// pass (spans recorded around calls into each layer, plus the counters the
// program exports through its metrics registry). Earlier lines carry the
// machine fingerprint, the seed and the details behind the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; README.md gives
// each metric's meaning per workload. Times are CPU seconds: on a small
// shared VM the hypervisor takes CPU from the process in bursts, which
// moves host time far more than any bound and CPU time far less. Host
// times are in the detail line and the per-layer breakdown.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"coverage_pct", "%"},
	{"alloc_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced breakdown's metrics. A workload that never
// reaches a layer reports 0 for it.
var perLayer = []metricDef{
	{"sched.solves", "count"},
	{"sched.nodes", "count"},
	{"sched.lp_iters", "count"},
	{"sched.truncated", "count"},
	{"sched.fallbacks", "count"},
	{"sched.pivot_s", "s"},
	{"sched.warm_attempts", "count"},
	{"sched.warm_hit_ratio", "ratio"},
	{"sched.call_ms", "ms"},
	{"sched.self_s", "s"},
	{"lp.dense_solves", "count"},
	{"lp.sparse_solves", "count"},
	{"lp.refactorizations", "count"},
	{"lp.partial_pricing_solves", "count"},
	{"lp.basis_reuses", "count"},
	{"lp.iter_limited", "count"},
	{"cluster.solves", "count"},
	{"cluster.nodes", "count"},
	{"cluster.lp_iters", "count"},
	{"cluster.grid_covers", "count"},
	{"cluster.self_s", "s"},
	{"core.frame_ms_1k", "ms"},
	{"core.frame_ms_5k", "ms"},
	{"core.frame_ms_20k", "ms"},
	{"core.frame_ms_100k", "ms"},
	{"core.frame_set_s", "s"},
	{"core.shards", "count"},
	{"core.imbalance", "ratio"},
	{"core.dropped_captures", "count"},
	{"core.sched_shard_max_ms", "ms"},
	{"core.sched_shard_sum_ms", "ms"},
	{"core.frame_captures", "count"},
	{"core.self_s", "s"},
	{"sim.stage.ephemeris_s", "s"},
	{"sim.stage.detect_s", "s"},
	{"sim.stage.cluster_s", "s"},
	{"sim.stage.sched_s", "s"},
	{"sim.stage.execute_s", "s"},
	{"sim.stage.account_s", "s"},
	{"sim.frames", "count"},
	{"sim.missed_deadlines", "count"},
	{"sim.result_drift", "count"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"dataset.gen_ms", "ms"},
	{"session.create_ms", "ms"},
	{"session.checkpoint_ms", "ms"},
	{"session.restore_ms", "ms"},
	{"session.checkpoint_bytes", "B"},
	{"server.run_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.queue_wait_share", "ratio"},
	{"server.rejects_429", "count"},
	{"server.requests_failed", "count"},
	{"server.run_p50_ms", "ms"},
	{"server.run_tail_ms", "ms"},
	{"server.create_p50_ms", "ms"},
	{"server.sessions_per_s", "1/s"},
	{"server.repeat_share", "ratio"},
	{"http.self_s", "s"},
	{"obs.trace_overhead_pct", "%"},
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	rate     float64 // serve-mixed offered sessions/s; 0 takes the default
}

// report is what one workload run measured.
type report struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	detail    map[string]any
	spans     []span
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	why, _ := r.detail["failures"].([]string)
	if len(why) < 10 {
		r.detail["failures"] = append(why, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"sim-ships":   runSimShips,
	"frame-dense": runFrameDense,
	"serve-mixed": runServeMixed,
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "sim-ships, frame-dense or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the inputs are a pure function of it")
	flag.Float64Var(&seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer breakdown")
	flag.Float64Var(&o.rate, "rate", 0, "serve-mixed offered load in sessions/s (0 = the calibrated default)")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "eebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	printJSON(map[string]any{"header": map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": seconds, "trace": trace,
		"machine": machineFingerprint(), "inputs_sha256": inputDigest(o),
	}})
	steal0, total0 := cpuTicks()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eebench:", err)
		os.Exit(1)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.detail["cpu_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	rep.e2e["rss_peak_mb"] = rssPeakMB()
	if o.trace {
		// The traced pass's spans, with their self times, for offline
		// inspection; .bench_build/ also holds the build.
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "eebench:", err)
			os.Exit(1)
		}
		rep.detail["spans_file"] = path
		rep.detail["spans"] = len(rep.spans)
	}
	out, err := result(rep, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eebench:", err)
		os.Exit(1)
	}
	printJSON(map[string]any{"detail": rep.detail})
	printJSON(out)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the final output line. Every end-to-end metric must be
// measured and nonzero; a per-layer metric the workload never reaches is 0.
func result(rep *report, traced bool) (map[string]any, error) {
	metrics := map[string]any{}
	if traced {
		for _, m := range perLayer {
			v := rep.layer[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric %s is %v", m.name, v)
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	}, nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// machineFingerprint identifies the machine and build a result came from.
func machineFingerprint() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the revision the Go toolchain stamped into the binary; a
// build outside a git work tree has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuTicks reads the machine's CPU time stolen by the hypervisor and its
// total CPU time, in clock ticks, from /proc/stat (zero where unreadable).
// A run taken while much time was stolen explains an outlying timing.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measureLoop calls step until the time budget is spent: it stops before a
// call that would likely end past the budget, judged by the previous
// call's duration, but always makes at least minCalls calls.
func measureLoop(budget time.Duration, minCalls int, step func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minCalls && time.Since(start)+last > budget {
			return nil
		}
		t := time.Now()
		if err := step(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// timeSetup runs one set-up from a freshly collected heap, so a garbage
// collection left over from earlier work does not land in it, and returns
// the CPU seconds (user + system, whole process) and host seconds it took.
func timeSetup(fn func() error) (cpuS, wallS float64, err error) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	err = fn()
	return cpuSeconds() - c0, time.Since(t0).Seconds(), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minCalls is the least number of measured calls per run: two untraced,
// or two untraced and two traced when tracing interleaves with them.
func minCalls(trace bool) int {
	if trace {
		return 4
	}
	return 2
}

// overheadPct compares the traced calls' median with the untraced one's.
func overheadPct(untraced, traced []float64) float64 {
	base := median(untraced)
	if base <= 0 || len(traced) == 0 {
		return math.NaN()
	}
	return 100 * (median(traced) - base) / base
}
