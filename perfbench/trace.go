package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// The traced run records spans only here, around public calls into the
// program: set-up calls, each run / step / batch, each request, and each op
// through runtime.CPUDevice.RunOp, the public entry point the executors
// dispatch every op to.  Nothing inside internal/ is instrumented.

type spanKind int

const (
	spanSetup   spanKind = iota // Plan, CompileWithOptions, PlanMemory, first run
	spanRun                     // one RunInto, Step or server batch
	spanOp                      // one op of a run
	spanRequest                 // one BatchServer.Infer
)

type span struct {
	Name  string
	Kind  spanKind
	Op    int // op index for spanOp, else -1
	Start int64
	Dur   int64
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 16

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// during returns the spans that started within a phase's timed window.
func (r *recorder) during(p phase) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dropped > 0 {
		fmt.Printf("# trace: %d spans dropped past the %d-span buffer\n", r.dropped, maxSpans)
	}
	from := int64(p.Begin.Sub(r.epoch))
	var out []span
	for _, s := range r.spans {
		if s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// report aggregates a traced phase, prints where its time went and a summary
// of the other spans recorded, and returns the breakdown.
func (r *recorder) report(p phase, prog *runtime.Program) breakdown {
	bd := aggregate(r.during(p), prog)
	bd.print(prog)
	r.mu.Lock()
	defer r.mu.Unlock()
	byName := map[string][]float64{}
	var names []string
	for _, s := range r.spans {
		if s.Kind == spanOp {
			continue
		}
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], float64(s.Dur)/1e6)
	}
	for _, n := range names {
		fmt.Printf("# span %-20s n=%-5d median %.3f ms\n", n, len(byName[n]), medianOf(byName[n]))
	}
	return bd
}

// timed runs fn inside a span of the given name and kind.
func (r *recorder) timed(name string, kind spanKind, fn func() error) error {
	if r == nil {
		return fn()
	}
	t0 := r.now()
	err := fn()
	r.add(span{Name: name, Kind: kind, Op: -1, Start: t0, Dur: r.now() - t0})
	return err
}

// step times fn, recording it as a set-up span when tracing.
func (r *recorder) step(name string, fn func() error) time.Duration {
	t0 := time.Now()
	_ = r.timed(name, spanSetup, fn) // fn's error is returned through its closure
	return time.Since(t0)
}

// timingDevice runs every op on the CPU device and records one span per op.
type timingDevice struct {
	rec   *recorder
	names []string // per op, resolved once so recording allocates nothing
}

func newTimingDevice(rec *recorder, prog *runtime.Program) *timingDevice {
	names := make([]string, len(prog.Ops))
	for i, op := range prog.Ops {
		names[i] = fmt.Sprintf("%s %s", op.Kind, op.Name)
	}
	return &timingDevice{rec: rec, names: names}
}

func (d *timingDevice) Name() string               { return "cpu-timed" }
func (d *timingDevice) TransferInUS(int64) float64 { return 0 }

func (d *timingDevice) RunOp(prog *runtime.Program, i int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	t0 := d.rec.now()
	us, err := runtime.CPUDevice{}.RunOp(prog, i, in, out, aux, scratch)
	d.rec.add(span{Name: d.names[i], Kind: spanOp, Op: i, Start: t0, Dur: d.rec.now() - t0})
	return us, err
}

// timingRunner records one span per server batch.
type timingRunner struct {
	rec  *recorder
	exec *runtime.Executor
}

func (t *timingRunner) RunInto(in, dst *tensor.Tensor) error {
	return t.RunIntoCtx(context.Background(), in, dst)
}

func (t *timingRunner) RunIntoCtx(ctx context.Context, in, dst *tensor.Tensor) error {
	return t.rec.timed("batch RunIntoCtx", spanRun, func() error { return t.exec.RunIntoCtx(ctx, in, dst) })
}

// Op classes of the per-layer metrics.  Forward classes get ms, share,
// gflops and gbps; backward classes ms and share, the conv ones gflops too.
var (
	fwdClasses = []string{"conv_direct", "conv_gemm", "conv_fft", "pool", "lrn", "fc", "relu", "softmax", "transform"}
	bwdClasses = []string{"bwd.conv_data", "bwd.conv_filter", "bwd.pool", "bwd.fc", "bwd.relu", "bwd.loss", "sgd"}
)

// opClass maps an op to its per-layer class ("" for ops no class covers).
func opClass(op runtime.Op) string {
	switch op.Kind {
	case runtime.OpTransform, runtime.OpReshape:
		return "transform"
	case runtime.OpLayer, runtime.OpRecompute:
		switch op.Layer.(type) {
		case *layers.Conv:
			switch op.Alg {
			case kernels.ConvAlgGemm:
				return "conv_gemm"
			case kernels.ConvAlgFFT:
				return "conv_fft"
			}
			return "conv_direct"
		case *layers.Pool:
			return "pool"
		case *layers.LRN:
			return "lrn"
		case *layers.FullyConnected:
			return "fc"
		case *layers.ReLU:
			return "relu"
		case *layers.Softmax:
			return "softmax"
		}
	case runtime.OpBackward:
		switch op.Layer.(type) {
		case *layers.Conv:
			return "bwd.conv_data"
		case *layers.Pool:
			return "bwd.pool"
		case *layers.FullyConnected:
			return "bwd.fc"
		case *layers.ReLU:
			return "bwd.relu"
		}
	case runtime.OpGradFilter:
		switch op.Layer.(type) {
		case *layers.Conv:
			return "bwd.conv_filter"
		case *layers.FullyConnected:
			return "bwd.fc"
		}
	case runtime.OpLossGrad:
		return "bwd.loss"
	case runtime.OpSGD:
		return "sgd"
	}
	return ""
}

// opWork is an op's computed work: floating-point operations and bytes
// moved to and from memory, from the layer configuration alone (one pass
// over inputs, parameters and outputs).  A backward op is counted like its
// forward layer.  These are counts computed from shapes, not measurements.
func opWork(prog *runtime.Program, op runtime.Op) (flops, bytes float64) {
	inB := float64(prog.Buffers[op.In].Bytes())
	outB := float64(prog.Buffers[op.Out].Bytes())
	if op.Kind == runtime.OpSGD || op.Kind == runtime.OpLossGrad {
		return 0, inB + outB
	}
	switch l := op.Layer.(type) {
	case *layers.Conv:
		c := l.Cfg
		flops = 2 * float64(c.N*c.K*c.OutH()*c.OutW()) * float64(c.C*c.FH*c.FW)
		return flops, inB + outB + float64(c.K*c.C*c.FH*c.FW)*4
	case *layers.FullyConnected:
		flops = 2 * float64(l.Batch) * float64(l.InDim) * float64(l.OutDim)
		return flops, inB + outB + float64(l.InDim*l.OutDim)*4
	case *layers.Pool:
		c := l.Cfg
		return float64(c.N*c.C*c.OutH()*c.OutW()) * float64(c.Window*c.Window), inB + outB
	case *layers.LRN:
		return float64(l.Shape.Elems()) * float64(2*l.LocalSize+3), inB + outB
	case *layers.ReLU:
		return float64(l.Shape.Elems()), inB + outB
	case *layers.Softmax:
		return 5 * float64(l.Cfg.Elems()), inB + outB
	}
	return 0, inB + outB
}

// classStats is one class's per-run mean time and computed work.
type classStats struct {
	MS, Flops, Bytes float64
}

// breakdown aggregates a traced phase: mean time per run, and per class the
// mean self time per run with its computed work.  Every op span falls inside
// exactly one run span, so run time minus the summed op time is the
// executor's own time (op loop, dispatch, staging) even when runs overlap.
type breakdown struct {
	Runs      int
	RunMS     float64 // mean per run
	OpMS      []float64
	Classes   map[string]classStats
	Unattrib  float64
	RunSample []float64 // every run's duration, ms
}

func aggregate(spans []span, prog *runtime.Program) breakdown {
	b := breakdown{OpMS: make([]float64, len(prog.Ops)), Classes: map[string]classStats{}}
	var runNS int64
	opNS := make([]int64, len(prog.Ops))
	for _, s := range spans {
		switch s.Kind {
		case spanRun:
			b.Runs++
			runNS += s.Dur
			b.RunSample = append(b.RunSample, float64(s.Dur)/1e6)
		case spanOp:
			opNS[s.Op] += s.Dur
		}
	}
	if b.Runs == 0 {
		return b
	}
	runs := float64(b.Runs)
	b.RunMS = float64(runNS) / 1e6 / runs
	var attributed float64
	for i, op := range prog.Ops {
		ms := float64(opNS[i]) / 1e6 / runs
		b.OpMS[i] = ms
		attributed += ms
		c := opClass(op)
		if c == "" || op.Kind == runtime.OpReshape && prog.Buffers[op.Out].AliasOf != runtime.NoBuffer {
			continue // zero-copy reshapes never run
		}
		f, by := opWork(prog, op)
		cs := b.Classes[c]
		cs.MS += ms
		cs.Flops += f
		cs.Bytes += by
		b.Classes[c] = cs
	}
	b.Unattrib = b.RunMS - attributed
	return b
}

// layerMetrics turns a breakdown into the op.* / bwd.* / sgd.* metrics.
func (b breakdown) layerMetrics(m map[string]float64) {
	rate := func(work, ms float64) float64 {
		if ms <= 0 {
			return 0
		}
		return work / (ms * 1e-3) / 1e9
	}
	share := func(ms float64) float64 {
		if b.RunMS <= 0 {
			return 0
		}
		return ms / b.RunMS
	}
	for _, c := range fwdClasses {
		cs := b.Classes[c]
		m["op."+c+".ms"] = cs.MS
		m["op."+c+".share"] = share(cs.MS)
		m["op."+c+".gflops"] = rate(cs.Flops, cs.MS)
		m["op."+c+".gbps"] = rate(cs.Bytes, cs.MS)
	}
	for _, c := range bwdClasses {
		cs := b.Classes[c]
		m[c+".ms"] = cs.MS
		m[c+".share"] = share(cs.MS)
	}
	for _, c := range []string{"bwd.conv_data", "bwd.conv_filter"} {
		cs := b.Classes[c]
		m[c+".gflops"] = rate(cs.Flops, cs.MS)
	}
	m["exec.unattributed_ms"] = b.Unattrib
}

// print lists where a traced run's time went, op by op.
func (b breakdown) print(prog *runtime.Program) {
	fmt.Printf("# trace: %d runs, %.3f ms per run, %.3f ms outside ops\n", b.Runs, b.RunMS, b.Unattrib)
	for i, op := range prog.Ops {
		if b.OpMS[i] == 0 {
			continue
		}
		flops, _ := opWork(prog, op)
		gf := flops / (b.OpMS[i] * 1e-3) / 1e9
		fmt.Printf("#   op %2d %-40s %-16s %-6v %9.3f ms %5.1f%% %7.2f GFLOP/s (computed)\n",
			i, op.Kind.String()+" "+op.Name, opClass(op), prog.Buffers[op.In].Layout, b.OpMS[i], 100*b.OpMS[i]/b.RunMS, gf)
	}
}
