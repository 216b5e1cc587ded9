// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every output it produces, and prints the workload's
// metrics; its last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload suite-native --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run. README.md in this directory
// describes the workloads, the metrics and what each should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// processStart anchors the first set-up's time: set-up is measured from
// process start to the first timed operation.
var processStart = time.Now()

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds everything the run writes: temporary stores and the
	// Chrome trace of a traced run.
	dir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{dir: ".bench_build/perfbench"}
	var traceFlag int
	record := flag.String("record-digests", "", "recompute the reference digests of every input set and write them to `file`, then exit")
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadList)
	flag.Uint64Var(&o.seed, "seed", 0, "workload seed; it picks one of the recorded input sets")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()

	if *record != "" {
		if err := recordDigests(context.Background(), *record, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result; human-readable
// lines go to w.
func run(ctx context.Context, o options, w io.Writer) (*result, error) {
	wl, err := newWorkload(o.workload, defaultConfig, variantOf(o.seed))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(o.dir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	return measure(ctx, wl, o, work, w)
}

// measure drives a workload: repeated set-up, the timed phase (split into
// an untraced and a traced half in a traced run), the output checks, and
// the metric report.
func measure(ctx context.Context, wl workload, o options, work string, w io.Writer) (*result, error) {
	defer wl.close()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	setup, err := repeatSetup(ctx, wl, tr, work)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, traced phase
	if o.trace {
		plain = timedPhase(ctx, wl, nil, budget/2)
		traced = timedPhase(ctx, wl, tr, budget/2)
	} else {
		plain = timedPhase(ctx, wl, nil, budget)
	}
	checkErr := wl.check(ctx)
	if checkErr != nil {
		fmt.Fprintln(w, "CORRECTNESS FAILURE:", checkErr)
	}

	e2e := plain.endToEnd(setup)
	fmt.Fprintf(w, "workload %s  seed-variant %d  ops %d  attempted %d  failed %d  error_rate %.6g\n",
		wl.name(), wl.variant(), plain.ops, plain.attempted, plain.failed, plain.errorRate())
	printMetrics(w, "", e2e)
	for _, l := range wl.summary(plain) {
		fmt.Fprintln(w, l)
	}
	res := &result{Correct: checkErr == nil, Attempted: plain.attempted, Failed: plain.failed, Metrics: e2e}
	if !o.trace {
		return res, finite(res.Metrics)
	}

	layers, err := wl.layers(ctx, tr, work)
	if err != nil {
		return nil, err
	}
	tracedE2E := traced.endToEnd(setup)
	layers["trace.overhead_s"] = metric{tracedE2E["op_s"].Value - e2e["op_s"].Value, "s"}
	layers["trace.spans"] = metric{float64(tr.len()), "count"}
	for k, v := range tr.selfTimes() {
		layers["layer."+k+".self_s"] = metric{v, "s"}
	}
	fillLayerDefaults(layers)
	path, err := tr.writeChrome(o.dir, fmt.Sprintf("%s-seed%d.json", wl.name(), o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trace: %d spans written to %s and validated\n", tr.len(), path)
	fmt.Fprintf(w, "tracing overhead: traced op_s %.6g s vs untraced %.6g s (traced ops %d, untraced ops %d)\n",
		tracedE2E["op_s"].Value, e2e["op_s"].Value, traced.ops, plain.ops)
	printMetrics(w, "layer ", layers)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Metrics = layers
	return res, finite(res.Metrics)
}

// repeatSetup runs the workload's set-up setupRepeats times, keeping the
// last, and returns each one's duration. The first is measured from
// process start, so it includes everything the process did before it.
func repeatSetup(ctx context.Context, wl workload, tr *tracer, work string) ([]float64, error) {
	var times []float64
	start := processStart
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			wl.teardown()
			start = time.Now()
		}
		if err := wl.setup(ctx, tr, work); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// setupRepeats is how many times a run sets up; set-up time is their
// median, which a single slow start-up cannot move.
const setupRepeats = 7

// timedPhase runs operations until the budget is spent. An operation that
// starts inside the budget runs to completion.
func timedPhase(ctx context.Context, wl workload, tr *tracer, budget time.Duration) phase {
	var ph phase
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		s := wl.op(ctx, tr, i)
		ph.add(s)
	}
	return ph
}

// printMetrics writes one line per metric, sorted by name.
func printMetrics(w io.Writer, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-40s %.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

// finite rejects metrics JSON cannot carry; they come from failed
// operations counted as missing every latency figure.
func finite(m map[string]metric) error {
	var errs []error
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			errs = append(errs, fmt.Errorf("metric %s is %v (too many failed operations)", k, v.Value))
		}
	}
	return errors.Join(errs...)
}
