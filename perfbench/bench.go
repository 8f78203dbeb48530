package main

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"runtime/metrics"
	"time"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// workload is one benchmark input set with its fixed settings.
type workload struct {
	// Procs is the GOMAXPROCS the workload runs at.
	Procs int
	Run   func(env) (*outcome, error)
}

// The workloads and the reason for each setting are recorded in
// BENCHMARK.json; the per-layer predictions in predictions.json.
var suite = map[string]workload{
	// Offline and training runs use one core: every kernel fans out over
	// GOMAXPROCS and waits at a barrier for whichever core the host takes
	// away, which made LeNet@128 spread 8.6% at two cores against 1.6% at one.
	"lenet-infer": {1, func(e env) (*outcome, error) {
		return runInfer(e, lenet(128), lenetInputScale, 7)
	}},
	"alexnet-infer": {1, func(e env) (*outcome, error) {
		return runInfer(e, alexnet1, alexnetInputScale, 5)
	}},
	"lenet-train": {1, runTrain},
	// Serving is the one workload where two workers' kernel fan-outs share
	// the host's cores, so it runs at two.
	"lenet-serve": {2, runServe},
}

// Input scales.  The networks' weights are unnormalised uniform draws, so
// unit-scale inputs saturate the softmax into exact one-hot rows, and a wrong
// value in any earlier layer would not reach the bit-equality checks.  At
// these scales the output rows stay spread out: a mean entropy of about 1.6
// of 2.3 nats on LeNet and 4.8 of 6.9 on AlexNet@1.
const (
	lenetInputScale   = 1e-3
	alexnetInputScale = 1e-11
)

func lenet(batch int) func() (*network.Network, error) {
	return func() (*network.Network, error) {
		net, err := workloads.LeNet()
		if err != nil {
			return nil, err
		}
		return net.WithBatch(batch)
	}
}

func alexnet1() (*network.Network, error) { return workloads.AlexNetWithBatch(1) }

// compile plans a fresh network with the paper's optimiser on the Titan
// Black model and lowers it with heuristic algorithm selection.  Probing is
// never enabled: it selects by timing, so the program could differ between
// runs.
func compile(rec *recorder, net *network.Network, st *setupTimes) (*runtime.Program, error) {
	var plan *network.ExecutionPlan
	var prog *runtime.Program
	var err error
	st.Plan += rec.step("Plan", func() error {
		plan, err = frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	st.Compile = rec.step("CompileWithOptions", func() error {
		prog, err = runtime.CompileWithOptions(plan, runtime.Options{ConvAlgorithms: true})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return prog, nil
}

// setupTimes is one fresh set-up: building and planning the network,
// compiling it, and the first run, which pays for lazy weight generation.
type setupTimes struct {
	Plan, Compile, First, Total time.Duration
}

// setupMetrics reports the median of several fresh set-ups.  One set-up of
// LeNet@32 spread 81–109 ms; the median of seven spread 2%.
func setupMetrics(m map[string]float64, ts []setupTimes) {
	var plan, comp, first, total []float64
	for _, t := range ts {
		plan = append(plan, msOf(t.Plan))
		comp = append(comp, msOf(t.Compile))
		first = append(first, msOf(t.First))
		total = append(total, t.Total.Seconds())
	}
	m["setup_s"] = medianOf(total)
	m["setup.plan_ms"] = medianOf(plan)
	m["setup.compile_ms"] = medianOf(comp)
	m["setup.first_run_ms"] = medianOf(first)
}

// memMetrics reports the compiled program's memory plan, exactly.
func memMetrics(m map[string]float64, prog *runtime.Program) {
	m["arena_bytes"] = float64(prog.Mem.PeakBytes())
	m["mem.naive_bytes"] = float64(prog.NaiveBytes())
	m["mem.scratch_bytes"] = float64(prog.ScratchBytes())
	m["mem.buffers"] = float64(len(prog.Buffers))
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// phase is one timed phase: raw per-call latencies and what it cost.
type phase struct {
	Begin             time.Time // start of the timed window
	Lat               []float64 // ms per timed call
	Wall              time.Duration
	Calls, Failed     int
	HeapPeak          uint64
	Allocs, AllocByte uint64
}

// heapMeter samples the live heap and the process's allocation counters
// through runtime/metrics, which reads without stopping the world.
type heapMeter struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapMeter() *heapMeter {
	return &heapMeter{s: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// sample records the heap high-water mark.
func (h *heapMeter) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapMeter) allocs() (objects, bytes uint64) {
	metrics.Read(h.s)
	return h.s[1].Value.Uint64(), h.s[2].Value.Uint64()
}

// start restarts the high-water mark from the current heap and returns the
// allocation counters the phase is measured from.
func (h *heapMeter) start() (objects, bytes uint64) {
	h.peak = 0
	h.sample()
	return h.allocs()
}

func (h *heapMeter) end(p *phase, objects0, bytes0 uint64) {
	h.sample()
	p.HeapPeak = h.peak
	o, b := h.allocs()
	p.Allocs, p.AllocByte = o-objects0, b-bytes0
}

// closedLoop calls fn back to back for dur; one caller, so each call starts
// when the previous returns.  ok checks the call's output outside its timing.
// Calls and Failed count the untimed first call too.
func closedLoop(dur time.Duration, fn func() error, ok func() bool) phase {
	var p phase
	call := func() {
		p.Calls++
		if err := fn(); err != nil || !ok() {
			p.Failed++
		}
	}
	// Collect set-up garbage so the heap peak counts only what stays live
	// and what the phase allocates.  The collection may also empty sync.Pool
	// caches, the executor's arena pool among them, so one untimed call
	// refills them as a long-running caller would have.
	goruntime.GC()
	call()
	h := newHeapMeter()
	o0, b0 := h.start()
	p.Begin = time.Now()
	for len(p.Lat) == 0 || time.Since(p.Begin) < dur {
		t0 := time.Now()
		call()
		p.Lat = append(p.Lat, msOf(time.Since(t0)))
		h.sample()
	}
	p.Wall = time.Since(p.Begin)
	h.end(&p, o0, b0)
	return p
}

// endToEndMetrics reports an untraced phase: throughput over the timed
// window, the per-call median and tail from the raw samples, the heap
// high-water mark, and the share of attempts that succeeded.
func endToEndMetrics(m map[string]float64, p phase, imgsPerCall int, res *outcome) {
	st := summarize(p.Lat)
	m["imgs_per_s"] = float64(imgsPerCall*st.N) / p.Wall.Seconds()
	m["latency_ms_p50"] = st.P50
	m["latency_ms_tail"] = st.Tail
	m["mem_peak_bytes"] = float64(p.HeapPeak)
	m["ok_share"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	fmt.Printf("# latency: n=%d p50=%.3f ms tail=p%.2f=%.3f ms (%d samples beyond)\n",
		st.N, st.P50, st.TailPct, st.Tail, st.Beyond)
}

// traceMetrics reports what the untraced phase allocated per run, how much
// slower the traced phase's median call ran, and the host calibration.
func traceMetrics(m map[string]float64, untraced, traced phase, runs int) {
	m["mem.allocs_per_run"] = float64(untraced.Allocs) / float64(runs)
	m["mem.alloc_bytes_per_run"] = float64(untraced.AllocByte) / float64(runs)
	if u := medianOf(untraced.Lat); u > 0 {
		m["trace.overhead_frac"] = medianOf(traced.Lat)/u - 1
	}
	m["host.gflops"] = hostGFLOPS()
	m["host.copy_gbps"] = hostCopyGBPS()
}

// randomTensor draws an NCHW tensor of values in [-scale, scale) from r.
func randomTensor(r *rand.Rand, s tensor.Shape, scale float32) *tensor.Tensor {
	t := tensor.New(s, tensor.NCHW)
	for i := range t.Data {
		t.Data[i] = (r.Float32()*2 - 1) * scale
	}
	return t
}

// bitEqual reports whether two float slices hold identical bits.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// toNCHW returns t in NCHW layout.
func toNCHW(t *tensor.Tensor) (*tensor.Tensor, error) {
	if t.Layout == tensor.NCHW {
		return t, nil
	}
	out := tensor.New(t.Shape, tensor.NCHW)
	return out, tensor.ConvertInto(t, out)
}
