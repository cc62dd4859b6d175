// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every answer the program gives, and prints as its
// last line one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics of a traced replay (-trace 1). See README.md for the
// workloads, the metrics and the layer each one belongs to.
//
// Run it from the repository root through run.sh, which builds it and
// serenityd first:
//
//	bash perfbench/run.sh --workload zoo-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metric is one declared metric; BENCHMARK.json lists the same names and
// units (see TestBenchmarkJSONMatchesMetrics).
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"compile_s", "s"},
	{"compile_geomean_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"arena_reduction_x", "x"},
	{"search_peak_bytes", "bytes"},
}

// perLayer metrics a workload does not exercise read 0: no work was done in
// that layer (README.md maps each metric to its workload).
var perLayer = []metric{
	{"graph.decode_us", "us"},
	{"graph.fingerprint_us", "us"},
	{"graph.validate_us", "us"},
	{"sched.baseline_us", "us"},
	{"sched.simulate_us", "us"},
	{"rewrite.us", "us"},
	{"rewrite.sites", "count"},
	{"rewrite.nodes_out", "count"},
	{"partition.us", "us"},
	{"partition.segments", "count"},
	{"partition.max_segment_nodes", "count"},
	{"segmemo.hit_us", "us"},
	{"segmemo.hits", "count"},
	{"segmemo.hit_ratio", "ratio"},
	{"dp.search_ms", "ms"},
	{"dp.states", "count"},
	{"dp.states_per_s", "states/s"},
	{"dp.max_frontier", "count"},
	{"dp.peak_bytes", "bytes"},
	{"dp.probes", "count"},
	{"dp.wasted_states_ratio", "ratio"},
	{"alloc.us", "us"},
	{"alloc.arena_over_peak", "x"},
	{"store.writes", "count"},
	{"store.hits", "count"},
	{"serenityd.cache_hit_ratio", "ratio"},
	{"serenityd.admission_waiting", "count"},
	{"serenityd.overhead_ms.cached", "ms"},
	{"serenityd.overhead_ms.uncached", "ms"},
	{"serenityd.compute_ms", "ms"},
	{"serenityd.p50_ms.repeat", "ms"},
	{"serenityd.p50_ms.known_cells", "ms"},
	{"serenityd.p50_ms.new_cell", "ms"},
	{"pipeline.unattributed_us", "us"},
	{"trace.overhead_us", "us"},
}

var workloads = map[string]func(*run) error{
	"zoo-cold":  runZooCold,
	"zoo-warm":  runZooWarm,
	"serve-mix": runServeMix,
}

// run is the state of one benchmark run.
type run struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	workdir   string
	serenityd string

	verdict   *verdict
	attempted int64
	failed    int64
	firstErr  error
	values    map[string]float64
}

func (r *run) printf(format string, args ...any) { fmt.Printf(format, args...) }

func (r *run) set(name string, v float64) { r.values[name] = v }

// counter records a deterministic count per pass or round of the workload's
// inputs and prints it by name.
func (r *run) counter(name string, v float64, per string) {
	r.values[name] = v
	r.printf("counter %s %s per %s\n", name, strconv.FormatFloat(v, 'f', -1, 64), per)
}

// opFailed counts an operation that failed; the first error is reported.
func (r *run) opFailed(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// setup runs fn reps times and records as setup_s the mean over the CPUs
// of the median duration on each; with a nil pin, the repetitions are not
// pinned and setup_s is their median. The state the last repetition leaves
// is the one the workload measures. undo, when not nil, tears down every
// other repetition's state, untimed.
func (r *run) setup(reps int, pin *pinner, fn func() error, undo func()) error {
	groups := 1
	if pin != nil {
		groups = pin.groups()
	}
	times := make([][]float64, groups)
	for i := 0; i < reps; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		g := 0
		if pin != nil {
			g = max(0, pin.pin(i))
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		times[g] = append(times[g], time.Since(t0).Seconds())
	}
	var medians []float64
	for _, ts := range times {
		if len(ts) > 0 {
			medians = append(medians, median(ts))
		}
	}
	r.set("setup_s", mean(medians))
	r.printf("setup: %.6f s, median over %d repetitions on %d CPUs in turn\n", mean(medians), reps, len(medians))
	return nil
}

func (r *run) tracePath() string {
	return filepath.Join(r.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// cpuSteal returns the machine's stolen and total CPU time so far, in clock
// ticks, from the first line of /proc/stat.
func cpuSteal() (steal, total int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user … steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// result checks that every operation succeeded, prints the verdict and
// returns the run's result line.
func (r *run) result() (result, error) {
	// A failed operation leaves no sample, so the metrics of a run that
	// dropped some would read faster than the program is: such a run fails.
	if r.firstErr != nil {
		r.verdict.check("ops.all_succeeded", fmt.Errorf("%d of %d operations failed; first: %w", r.failed, r.attempted, r.firstErr))
	} else {
		r.verdict.check("ops.all_succeeded", nil)
	}
	r.verdict.report(os.Stdout)

	declared := endToEnd
	if r.traced {
		declared = perLayer
	}
	out := result{Correct: r.verdict.ok(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range declared {
		v, ok := r.values[m.name]
		if !ok && !r.traced {
			return out, fmt.Errorf("%s was not measured", m.name)
		}
		out.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return out, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "zoo-cold, zoo-warm or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 replays the workload traced and reports the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the server's stores, logs and spans")
	serenityd := flag.String("serenityd", "", "serenityd binary (serve-mix)")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload zoo-cold|zoo-warm|serve-mix, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, workdir: *workdir, serenityd: *serenityd,
		verdict: newVerdict(), values: map[string]float64{},
	}
	r.printf("perfbench %s seed=%d seconds=%d trace=%d\n", r.workload, r.seed, *seconds, *traceFlag)
	steal0, total0, stealOK := cpuSteal()
	if err := w(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if steal1, total1, ok := cpuSteal(); ok && stealOK && total1 > total0 {
		// On a virtual machine the host may run other guests on this one's
		// CPUs; every timing of a run with a large share here is slower.
		r.printf("host steal: %.1f%% of CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	out, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
