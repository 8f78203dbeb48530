// Command perfbench is the repository's benchmark.  It runs one named
// workload against the memcnn runtime for a fixed time, checks every output
// against a reference, and prints its metrics as one JSON line:
//
//	go run . --workload lenet-infer --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced.  With
// --trace 1 it makes a separate traced run and prints the per-layer metrics.
// The workload seed is the only source of inputs; the program under test
// receives only the tensors and schedules generated from it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"sort"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the runtime sees, reported by every
// workload under the same names.
var endToEnd = []metricDef{
	{"imgs_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"setup_s", "s"},
	{"arena_bytes", "bytes"},
	{"mem_peak_bytes", "bytes"},
	{"ok_share", "1"},
}

// perLayer are the traced run's metrics.  Every workload prints all of
// them; a metric of a layer the workload does not run reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"setup.plan_ms", "ms"}, {"setup.compile_ms", "ms"}, {"setup.first_run_ms", "ms"},
		{"mem.naive_bytes", "bytes"}, {"mem.scratch_bytes", "bytes"}, {"mem.buffers", "count"},
		{"mem.allocs_per_run", "count"}, {"mem.alloc_bytes_per_run", "bytes"},
	}
	for _, c := range fwdClasses {
		d = append(d, metricDef{"op." + c + ".ms", "ms"}, metricDef{"op." + c + ".share", "1"},
			metricDef{"op." + c + ".gflops", "GFLOP/s"}, metricDef{"op." + c + ".gbps", "GB/s"})
	}
	for _, c := range bwdClasses {
		d = append(d, metricDef{c + ".ms", "ms"}, metricDef{c + ".share", "1"})
	}
	return append(d,
		metricDef{"bwd.conv_data.gflops", "GFLOP/s"}, metricDef{"bwd.conv_filter.gflops", "GFLOP/s"},
		metricDef{"exec.unattributed_ms", "ms"},
		metricDef{"serve.batches", "count"}, metricDef{"serve.fill_ratio", "1"},
		metricDef{"serve.batch_ms_p50", "ms"}, metricDef{"serve.busy_share", "1"},
		metricDef{"serve.queue_ms_mean", "ms"}, metricDef{"serve.gen_late_ms_max", "ms"},
		metricDef{"trace.overhead_frac", "1"},
		metricDef{"host.gflops", "GFLOP/s"}, metricDef{"host.copy_gbps", "GB/s"},
	)
}()

// env is one invocation's settings.
type env struct {
	Seed  int64
	Dur   time.Duration
	Trace bool
}

// outcome is what a workload run reports.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: lenet-infer, alexnet-infer, lenet-train or lenet-serve")
	seed := flag.Int64("seed", 1, "workload seed; all inputs are generated from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	flag.Parse()

	w, ok := suite[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; want one of %v\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Every kernel fans out over GOMAXPROCS; fixing it per workload keeps
	// one workload's figures comparable across hosts and runs.
	goruntime.GOMAXPROCS(w.Procs)
	e := env{Seed: *seed, Dur: time.Duration(*seconds * float64(time.Second)), Trace: *trace == 1}
	fmt.Printf("# workload %s: seed %d, %v timed, GOMAXPROCS %d, trace %v\n", *name, e.Seed, e.Dur, w.Procs, e.Trace)
	out, err := w.Run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}

	defs := endToEnd
	if e.Trace {
		defs = perLayer
	}
	rep := report{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok && !e.Trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.Name)
			return 2
		}
		rep.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Printf("# %-28s %16.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d calls failed or returned wrong output\n", *name, out.Failed, out.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range suite {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
