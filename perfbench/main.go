// Command perfbench is the repository's benchmark program: one process,
// three closed-loop workloads (mnist-train, mnist-defend, fleet-wire), each
// measured end to end with tracing off, or broken down per module with
// tracing on. It is run through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload mnist-train --seed 1 --seconds 32 --trace 0
//
// The metric names and units come from BENCHMARK.json at the repository
// root; every run prints each metric it declares (the end-to-end list
// untraced, the per-layer list traced), one per line with its unit, and
// ends with a single JSON result line. See README.md for why each workload
// exists and which layers it bypasses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json perfbench reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// params are the run's inputs: the workload, its seed, the measuring
// window, and the concurrency every workload is held to.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// nproc bounds every worker count, stream window, shard count and
	// HTTP connection count a workload uses.
	nproc int
}

// outcome is what a workload hands back: op counts, the metrics it
// measured, and every failed check.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// info lines are printed before the metrics (sample counts, the
	// reconciliation figures).
	info []string
	// broken lists failed checks that are not per-op (trace identity);
	// any entry makes the run incorrect.
	broken []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// op records one attempted operation and whether its checks held.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			o.info = append(o.info, "failed op: "+err.Error())
		}
	}
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// merge adds a traced section's ops, checks and notes to o, and each of
// its metrics that o does not have yet.
func (o *outcome) merge(name string, s *outcome) {
	o.attempted += s.attempted
	o.failed += s.failed
	o.broken = append(o.broken, s.broken...)
	o.infof("section %s", name)
	o.info = append(o.info, s.info...)
	for k, v := range s.metrics {
		if _, ok := o.metrics[k]; !ok {
			o.metrics[k] = v
		}
	}
}

// sectionWindow is the share of the measuring window a traced run gives
// each section other than the named workload's.
const sectionWindow = 0.15

// runTraced is the traced run. Whichever workload it names, it traces
// all three paths in turn, so every per-layer metric is measured in
// every traced run: the mnist-train federation, the mnist-defend
// pipeline on that federation, and the fleet-wire rounds. The named
// workload gets the whole window and its figures take precedence where
// two sections measure the same metric; the other sections run briefly.
// mnist-defend's federation is the paper's own (scenario seed 1), as in
// its untraced runs; otherwise the federation takes the benchmark seed.
func runTraced(p params, workload string) *outcome {
	short := p
	short.seconds = p.seconds * sectionWindow
	window := func(w string) params {
		if w == workload {
			return p
		}
		return short
	}
	scen := eval.MNISTScenario(9, 2)
	if workload != "mnist-defend" {
		scen.Seed = p.seed
	}
	train, defend, fleet := newOutcome(), newOutcome(), newOutcome()
	fed := traceTrain(train, window("mnist-train"), scen)
	traceDefend(defend, window("mnist-defend"), newDefense(fed, p.seed))
	traceFleet(fleet, window("fleet-wire"))

	// The named workload's section merges first; the others follow in a
	// fixed order, so a metric two of them measure always comes from the
	// same one.
	traced := []struct {
		name string
		out  *outcome
	}{{"mnist-train", train}, {"mnist-defend", defend}, {"fleet-wire", fleet}}
	o := newOutcome()
	for _, s := range traced {
		if s.name == workload {
			o.merge(s.name, s.out)
		}
	}
	for _, s := range traced {
		if s.name != workload {
			o.merge(s.name, s.out)
		}
	}
	return o
}

// workloads are the untraced runs, by workload name.
var workloads = map[string]func(params) *outcome{
	"mnist-train":  runTrain,
	"mnist-defend": runDefend,
	"fleet-wire":   runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 32, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}

	// Go before 1.25 ignores container CPU quotas, so the processor count
	// is pinned explicitly to the CPUs this process may run on.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	parallel.SetWorkers(nproc)
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: nproc}
	printFingerprint(*workload, p)

	var out *outcome
	want := spec.EndToEnd
	if p.trace {
		out, want = runTraced(p, *workload), spec.PerLayer
	} else {
		out = run(p)
	}
	if err := printResult(out, want); err != nil {
		fatal(err)
	}
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return nil, fmt.Errorf("%s names workload %q, which perfbench does not implement", path, w.Name)
		}
	}
	return &s, nil
}

// printFingerprint records the host and the concurrency in effect, so
// results are only compared like for like.
func printFingerprint(workload string, p params) {
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	fp := map[string]any{
		"workload":      workload,
		"seed":          p.seed,
		"seconds":       p.seconds,
		"trace":         p.trace,
		"nproc":         p.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"goarch":        runtime.GOARCH,
		"goamd64":       goamd64,
		"go":            runtime.Version(),
		"workers":       parallel.Workers(),
		"stream_window": p.nproc,
		"shards":        p.nproc,
		"http_conns":    p.nproc,
	}
	b, _ := json.Marshal(fp)
	fmt.Printf("host %s\n", b)
}

// printResult prints every wanted metric by name with its unit, then the
// final JSON result line. A metric the workload did not produce is a
// benchmark bug and fails the run without a result line.
func printResult(o *outcome, want []metricSpec) error {
	for _, line := range o.info {
		fmt.Println(line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	var missing []string
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		metrics[m.Name] = value{Value: v, Unit: m.Unit}
		fmt.Printf("metric %-32s %.6g %s\n", m.Name, v, m.Unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload produced no finite value for %s", strings.Join(missing, ", "))
	}
	for _, b := range o.broken {
		fmt.Println("check failed: " + b)
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && len(o.broken) == 0 && o.attempted > 0, o.attempted, o.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
