package kernels

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// Backward-pass kernels.  The paper notes (Section II.A, footnote 1) that the
// same data structures and convolution operations are used in the forward and
// backward passes, so the layout findings carry over to training; its Caffe
// integration is profiled on complete forward-backward iterations.  This file
// provides the backward kernels needed to price (and functionally check) a
// training step: convolution gradients with respect to the input and to the
// filters, pooling backward, ReLU backward and the fused softmax +
// cross-entropy gradient.
//
// Every kernel has an allocation-free *Into variant writing into a
// caller-provided gradient tensor; the planned training executor
// (internal/runtime/train) runs those over arena-planned buffers, so a
// steady-state training step allocates no tensors.  The allocating functions
// are thin wrappers over the *Into variants, which keeps the two paths
// bit-identical.  Like the forward direct convolution, the conv and pooling
// kernels read each operand's layout strides once per call and index the
// raw Data slices, with tap ranges clipped up front.  Work is distributed by
// atomic plane counters with a fixed per-element accumulation order, so
// results do not depend on the worker count.

// planeKernel is one kernel call split into independent planes: plane(p)
// writes output elements that no other plane writes.
type planeKernel interface{ plane(p int) }

// parallelPlanes runs k.plane(p) for p in [0, planes) across GOMAXPROCS
// workers that claim planes from an atomic counter.  Each plane is processed
// by exactly one worker, so kernels that assign each output element to one
// plane stay bit-deterministic for any worker count.  The kernel is passed
// by value and copied to the heap only on the parallel path, so a
// single-worker run allocates nothing.
//
//memcnn:noalloc
func parallelPlanes[K planeKernel](planes int, k K) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || planes <= 1 {
		for p := 0; p < planes; p++ {
			k.plane(p)
		}
		return
	}
	shared := k // captured instead of k, so only this path moves it to the heap
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { //memcnn:alloc-ok
			defer wg.Done()
			for {
				p := next.Add(1) - 1
				if p >= int64(planes) {
					return
				}
				shared.plane(int(p))
			}
		}()
	}
	wg.Wait()
}

// ConvBackwardData computes the gradient of the convolution with respect to
// its input: dIn[n][c][ih][iw] = sum over (k, fh, fw) hitting (ih, iw) of
// dOut[n][k][oh][ow] * filter[k][c][fh][fw].  It is the functional reference
// for the backward-data kernel.
func ConvBackwardData(dOut, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dIn := tensor.New(cfg.InputShape(), outLayout)
	if err := ConvBackwardDataInto(dOut, filters, dIn, cfg); err != nil {
		return nil, err
	}
	return dIn, nil
}

// ConvBackwardDataInto is the allocation-free variant of ConvBackwardData: it
// writes into a caller-provided input-gradient tensor of the config's input
// shape (any layout).  Every element is overwritten, so the destination's
// prior contents do not matter.  Each (n, c) plane is computed by exactly one
// worker with a fixed accumulation order, so the result is bit-deterministic
// for any worker count.
//
//memcnn:noalloc
func ConvBackwardDataInto(dOut, filters, dIn *tensor.Tensor, cfg ConvConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: backward-data dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if filters.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	if dIn.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: backward-data dIn shape %v does not match config %v", dIn.Shape, cfg.InputShape())
	}
	parallelPlanes(cfg.N*cfg.C, convBackwardData{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		dOut: stridesOf(dOut), f: stridesOf(filters), dIn: stridesOf(dIn)})
	return nil
}

// convBackwardData is one backward-data call with its strides hoisted.
type convBackwardData struct {
	cfg          ConvConfig
	outH, outW   int
	dOut, f, dIn strided
}

// scatterTaps lists the filter taps that input coordinate i receives
// gradient from: taps lo, lo+stride, ... below hi, where tap lo reads output
// coordinate o0 and each further tap the output one before.
func scatterTaps(i, stride, pad, f, outSize int) (o0, lo, hi int) {
	num := i + pad // the output coordinate times stride, plus the tap
	lo = num - (outSize-1)*stride
	if lo < 0 {
		lo = 0
	}
	lo += (num - lo) % stride
	hi = num + 1
	if hi > f {
		hi = f
	}
	return (num - lo) / stride, lo, hi
}

// plane computes the (n, c) input-gradient feature map.
func (b convBackwardData) plane(p int) {
	cfg, dOut, f, dIn := &b.cfg, &b.dOut, &b.f, &b.dIn
	n, c := p/cfg.C, p%cfg.C
	sh, sw := cfg.StrideH, cfg.StrideW
	for ih := 0; ih < cfg.H; ih++ {
		oh0, fhLo, fhHi := scatterTaps(ih, sh, cfg.PadH, cfg.FH, b.outH)
		for iw := 0; iw < cfg.W; iw++ {
			ow0, fwLo, fwHi := scatterTaps(iw, sw, cfg.PadW, cfg.FW, b.outW)
			var acc float64
			for k := 0; k < cfg.K; k++ {
				for fh, oh := fhLo, oh0; fh < fhHi; fh, oh = fh+sh, oh-1 {
					gp := n*dOut.n + k*dOut.c + oh*dOut.h + ow0*dOut.w
					fp := k*f.n + c*f.c + fh*f.h + fwLo*f.w
					for fw := fwLo; fw < fwHi; fw += sw {
						acc += float64(dOut.data[gp]) * float64(f.data[fp])
						gp -= dOut.w
						fp += sw * f.w
					}
				}
			}
			dIn.data[n*dIn.n+c*dIn.c+ih*dIn.h+iw*dIn.w] = float32(acc)
		}
	}
}

// ConvBackwardFilter computes the gradient of the convolution with respect to
// its filter bank: dW[k][c][fh][fw] = sum over (n, oh, ow) of
// dOut[n][k][oh][ow] * in[n][c][oh*S+fh-pad][ow*S+fw-pad].
func ConvBackwardFilter(in, dOut *tensor.Tensor, cfg ConvConfig) (*tensor.Tensor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dW := tensor.New(cfg.FilterShape(), tensor.NCHW)
	if err := ConvBackwardFilterInto(in, dOut, dW, cfg); err != nil {
		return nil, err
	}
	return dW, nil
}

// ConvBackwardFilterInto is the allocation-free variant of ConvBackwardFilter:
// it writes into a caller-provided filter-gradient tensor of the config's
// filter shape.  Each (k, c) filter plane is accumulated by exactly one worker
// in a fixed (n, oh, ow) order, so the result is bit-deterministic for any
// worker count.
//
//memcnn:noalloc
func ConvBackwardFilterInto(in, dOut, dW *tensor.Tensor, cfg ConvConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: backward-filter input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: backward-filter dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if dW.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: backward-filter dW shape %v does not match config %v", dW.Shape, cfg.FilterShape())
	}
	parallelPlanes(cfg.K*cfg.C, convBackwardFilter{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(in), dOut: stridesOf(dOut), dW: stridesOf(dW)})
	return nil
}

// convBackwardFilter is one grad-filter call with its strides hoisted.
type convBackwardFilter struct {
	cfg          ConvConfig
	outH, outW   int
	in, dOut, dW strided
}

// outRange returns the outputs [lo, hi) whose filter tap f reads an input
// coordinate inside [0, size); hi <= lo when no output does.
func outRange(f, stride, pad, size, outSize int) (lo, hi int) {
	if over := pad - f; over > 0 {
		lo = (over + stride - 1) / stride
	}
	if num := size - 1 + pad - f; num >= 0 {
		hi = num/stride + 1
		if hi > outSize {
			hi = outSize
		}
	}
	return lo, hi
}

// plane computes the (k, c) filter-gradient plane.
func (b convBackwardFilter) plane(p int) {
	cfg, in, dOut, dW := &b.cfg, &b.in, &b.dOut, &b.dW
	k, c := p/cfg.C, p%cfg.C
	for fh := 0; fh < cfg.FH; fh++ {
		ohLo, ohHi := outRange(fh, cfg.StrideH, cfg.PadH, cfg.H, b.outH)
		for fw := 0; fw < cfg.FW; fw++ {
			owLo, owHi := outRange(fw, cfg.StrideW, cfg.PadW, cfg.W, b.outW)
			var acc float64
			for n := 0; n < cfg.N; n++ {
				for oh := ohLo; oh < ohHi; oh++ {
					ih := oh*cfg.StrideH - cfg.PadH + fh
					iw := owLo*cfg.StrideW - cfg.PadW + fw
					gp := n*dOut.n + k*dOut.c + oh*dOut.h + owLo*dOut.w
					ip := n*in.n + c*in.c + ih*in.h + iw*in.w
					for ow := owLo; ow < owHi; ow++ {
						acc += float64(dOut.data[gp]) * float64(in.data[ip])
						gp += dOut.w
						ip += cfg.StrideW * in.w
					}
				}
			}
			dW.data[k*dW.n+c*dW.c+fh*dW.h+fw*dW.w] = float32(acc)
		}
	}
}

// ConvBackwardDataCHWNCost models the backward-data pass of the direct
// convolution on the CHWN layout.  The access structure mirrors the forward
// kernel (the roles of C and K swap and the filter is traversed transposed),
// so the cost model reuses the forward machinery on the transposed
// configuration — exactly the paper's observation that forward and backward
// share layout behaviour.
func ConvBackwardDataCHWNCost(d *gpusim.Device, cfg ConvConfig) gpusim.KernelStats {
	cfg = cfg.withDefaults()
	t := transposedConfig(cfg)
	s := ConvDirectCHWNCost(d, t)
	s.Name = fmt.Sprintf("direct-conv-bwd-data CHWN %s", cfg.String())
	return s
}

// ConvBackwardDataNCHWCost models the backward-data pass of the GEMM
// convolution (col2im after a GEMM with the transposed filter matrix).
func ConvBackwardDataNCHWCost(d *gpusim.Device, cfg ConvConfig) []gpusim.KernelStats {
	cfg = cfg.withDefaults()
	t := transposedConfig(cfg)
	seq := ConvGemmNCHWCost(d, t)
	for i := range seq {
		seq[i].Name = fmt.Sprintf("gemm-conv-bwd-data NCHW %s (stage %d)", cfg.String(), i)
	}
	return seq
}

// transposedConfig returns the configuration of the backward-data convolution
// seen as a forward convolution: output channels become input channels and
// the spatial extent is the forward output's.  Degenerate sizes are clamped
// so the cost query stays well defined for very small layers.
func transposedConfig(cfg ConvConfig) ConvConfig {
	h, w := cfg.OutH(), cfg.OutW()
	if h < cfg.FH {
		h = cfg.FH
	}
	if w < cfg.FW {
		w = cfg.FW
	}
	padH, padW := cfg.FH-1-cfg.PadH, cfg.FW-1-cfg.PadW
	if padH < 0 {
		padH = 0
	}
	if padW < 0 {
		padW = 0
	}
	return ConvConfig{
		N: cfg.N, C: cfg.K, H: h, W: w,
		K: cfg.C, FH: cfg.FH, FW: cfg.FW,
		StrideH: 1, StrideW: 1,
		PadH: padH, PadW: padW,
	}
}

// ConvBackwardFilterCost models the weight-gradient kernel, which both
// libraries implement as a GEMM over the unrolled input:
// dW (K × C·FH·FW) = dOut (K × N·OutH·OutW) · unrolled(in)ᵀ.
func ConvBackwardFilterCost(d *gpusim.Device, cfg ConvConfig) []gpusim.KernelStats {
	cfg = cfg.withDefaults()
	g := GemmCostConfig{M: cfg.K, N: cfg.ReductionLength(), K: cfg.N * cfg.OutH() * cfg.OutW()}
	gemm := GemmCost(d, g)
	gemm.Name = fmt.Sprintf("conv-bwd-filter %s", cfg.String())
	if cfg.FH == 1 && cfg.FW == 1 && cfg.StrideH == 1 && cfg.StrideW == 1 {
		return []gpusim.KernelStats{gemm}
	}
	return []gpusim.KernelStats{Im2colCost(d, cfg), gemm}
}

// PoolBackward computes the gradient of the pooling layer.  For max pooling
// the incoming gradient is routed to the window position that produced the
// maximum (ties go to the first such position, as the CUDA kernels do); for
// average pooling it is spread uniformly over the window.
func PoolBackward(in, dOut *tensor.Tensor, cfg PoolConfig) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dIn := tensor.New(cfg.InputShape(), in.Layout)
	if err := PoolBackwardInto(in, dOut, dIn, cfg); err != nil {
		return nil, err
	}
	return dIn, nil
}

// PoolBackwardInto is the allocation-free variant of PoolBackward.  The
// destination is fully overwritten (the scatter zeroes each (n, c) plane
// before accumulating into it), so arena-recycled storage needs no clearing.
// Each plane is owned by exactly one worker with a fixed window order, so the
// result is bit-deterministic for any worker count.
//
//memcnn:noalloc
func PoolBackwardInto(in, dOut, dIn *tensor.Tensor, cfg PoolConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: pool backward input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if dOut.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: pool backward dOut shape %v does not match config %v", dOut.Shape, cfg.OutputShape())
	}
	if dIn.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: pool backward dIn shape %v does not match config %v", dIn.Shape, cfg.InputShape())
	}
	parallelPlanes(cfg.N*cfg.C, poolBackward{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(in), dOut: stridesOf(dOut), dIn: stridesOf(dIn)})
	return nil
}

// poolBackward is one pool-backward call with its strides hoisted.
type poolBackward struct {
	cfg           PoolConfig
	outH, outW    int
	in, dOut, dIn strided
}

// plane zeroes and then accumulates the (n, c) input-gradient feature map.
func (b poolBackward) plane(p int) {
	cfg, in, dOut, dIn := &b.cfg, &b.in, &b.dOut, &b.dIn
	n, c := p/cfg.C, p%cfg.C
	base, gBase, inBase := n*dIn.n+c*dIn.c, n*dOut.n+c*dOut.c, n*in.n+c*in.c
	for h := 0; h < cfg.H; h++ {
		for w := 0; w < cfg.W; w++ {
			dIn.data[base+h*dIn.h+w*dIn.w] = 0
		}
	}
	win := cfg.Window
	for oh := 0; oh < b.outH; oh++ {
		for ow := 0; ow < b.outW; ow++ {
			g := dOut.data[gBase+oh*dOut.h+ow*dOut.w]
			h0, w0 := oh*cfg.Stride, ow*cfg.Stride
			if cfg.Op == AvgPool {
				share := g / float32(win*win)
				for y := 0; y < win; y++ {
					q := base + (h0+y)*dIn.h + w0*dIn.w
					for x := 0; x < win; x++ {
						dIn.data[q] += share
						q += dIn.w
					}
				}
				continue
			}
			bestY, bestX := 0, 0
			best := in.data[inBase+h0*in.h+w0*in.w]
			for y := 0; y < win; y++ {
				q := inBase + (h0+y)*in.h + w0*in.w
				for x := 0; x < win; x++ {
					if v := in.data[q]; v > best {
						best, bestY, bestX = v, y, x
					}
					q += in.w
				}
			}
			dIn.data[base+(h0+bestY)*dIn.h+(w0+bestX)*dIn.w] += g
		}
	}
}

// PoolBackwardCost models the pooling backward kernel: it reads the incoming
// gradient and the forward activations (or the stored argmax mask) and
// scatters into the input gradient.  The layout determines coalescing exactly
// as in the forward pass.
func PoolBackwardCost(d *gpusim.Device, cfg PoolConfig, layoutIsCHWN bool) gpusim.KernelStats {
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4
	// Reads: gradient + mask; writes: input-sized gradient (atomics for the
	// overlapped case).
	read := 2 * outBytes
	write := inBytes
	eff := 1.0
	if !layoutIsCHWN {
		eff = nchwPoolWarpEfficiency(d, cfg)
	}
	if cfg.Overlapped() {
		write *= 1.15 // atomic collisions on shared border elements
	}
	name := "pool-bwd CHWN"
	if !layoutIsCHWN {
		name = "pool-bwd NCHW"
	}
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("%s %s", name, cfg.String()),
		GridBlocks:        ceilDiv(cfg.OutputShape().Elems(), 256),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 24},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read / eff,
		DRAMWriteBytes:    write / eff,
		UsefulReadBytes:   read,
		UsefulWriteBytes:  write,
	}
}

// SoftmaxCrossEntropyBackward computes the gradient of the softmax +
// cross-entropy loss with respect to the logits: probs - onehot(labels),
// scaled by 1/N.  probs is the row-major N×Classes output of Softmax.
func SoftmaxCrossEntropyBackward(probs []float32, labels []int, cfg SoftmaxConfig) ([]float32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	grad := make([]float32, cfg.Elems())
	if err := SoftmaxCrossEntropyBackwardInto(grad, probs, labels, cfg); err != nil {
		return nil, err
	}
	return grad, nil
}

// SoftmaxCrossEntropyBackwardInto is the allocation-free variant of
// SoftmaxCrossEntropyBackward, writing the logit gradient into a
// caller-provided slice of at least cfg.Elems() elements.
//
//memcnn:noalloc
func SoftmaxCrossEntropyBackwardInto(grad, probs []float32, labels []int, cfg SoftmaxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(probs) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(grad) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward grad has %d elements, want %d", len(grad), cfg.Elems())
	}
	if len(labels) != cfg.N {
		return fmt.Errorf("kernels: softmax backward has %d labels, want %d", len(labels), cfg.N)
	}
	scale := 1 / float32(cfg.N)
	for n := 0; n < cfg.N; n++ {
		lbl := labels[n]
		if lbl < 0 || lbl >= cfg.Classes {
			return fmt.Errorf("kernels: label %d out of range for %d classes", lbl, cfg.Classes)
		}
		for c := 0; c < cfg.Classes; c++ {
			g := probs[n*cfg.Classes+c]
			if c == lbl {
				g -= 1
			}
			grad[n*cfg.Classes+c] = g * scale
		}
	}
	return nil
}

// SoftmaxCrossEntropyBackwardFloatInto is SoftmaxCrossEntropyBackwardInto
// with the labels carried as float32 values (rounded class indices), the form
// they take inside a planned training program's float32 arena.
//
//memcnn:noalloc
func SoftmaxCrossEntropyBackwardFloatInto(grad, probs, labels []float32, cfg SoftmaxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(probs) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(grad) < cfg.Elems() {
		return fmt.Errorf("kernels: softmax backward grad has %d elements, want %d", len(grad), cfg.Elems())
	}
	if len(labels) < cfg.N {
		return fmt.Errorf("kernels: softmax backward has %d labels, want %d", len(labels), cfg.N)
	}
	scale := 1 / float32(cfg.N)
	for n := 0; n < cfg.N; n++ {
		lbl := int(labels[n])
		if lbl < 0 || lbl >= cfg.Classes {
			return fmt.Errorf("kernels: label %d out of range for %d classes", lbl, cfg.Classes)
		}
		for c := 0; c < cfg.Classes; c++ {
			g := probs[n*cfg.Classes+c]
			if c == lbl {
				g -= 1
			}
			grad[n*cfg.Classes+c] = g * scale
		}
	}
	return nil
}

// SoftmaxCrossEntropyLossFloat is SoftmaxCrossEntropyLoss with float32-coded
// labels, matching SoftmaxCrossEntropyBackwardFloatInto.
func SoftmaxCrossEntropyLossFloat(probs, labels []float32, cfg SoftmaxConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(probs) < cfg.Elems() {
		return 0, fmt.Errorf("kernels: softmax loss probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(labels) < cfg.N {
		return 0, fmt.Errorf("kernels: softmax loss has %d labels, want %d", len(labels), cfg.N)
	}
	var loss float64
	for n := 0; n < cfg.N; n++ {
		lbl := int(labels[n])
		if lbl < 0 || lbl >= cfg.Classes {
			return 0, fmt.Errorf("kernels: label %d out of range for %d classes", lbl, cfg.Classes)
		}
		p := float64(probs[n*cfg.Classes+lbl])
		if p < 1e-30 {
			p = 1e-30
		}
		loss -= math.Log(p)
	}
	return loss / float64(cfg.N), nil
}

// SoftmaxCrossEntropyLoss returns the mean cross-entropy of the probability
// matrix against the labels: -1/N · Σ log probs[n][label n].  The summation
// order is fixed (by image, in float64), so the loss value is bit-stable
// across executors — the planned and naive trainers both report it.
func SoftmaxCrossEntropyLoss(probs []float32, labels []int, cfg SoftmaxConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(probs) < cfg.Elems() {
		return 0, fmt.Errorf("kernels: softmax loss probs has %d elements, want %d", len(probs), cfg.Elems())
	}
	if len(labels) != cfg.N {
		return 0, fmt.Errorf("kernels: softmax loss has %d labels, want %d", len(labels), cfg.N)
	}
	var loss float64
	for n := 0; n < cfg.N; n++ {
		lbl := labels[n]
		if lbl < 0 || lbl >= cfg.Classes {
			return 0, fmt.Errorf("kernels: label %d out of range for %d classes", lbl, cfg.Classes)
		}
		p := float64(probs[n*cfg.Classes+lbl])
		if p < 1e-30 {
			p = 1e-30 // clamp: a zero probability would make the loss infinite
		}
		loss -= math.Log(p)
	}
	return loss / float64(cfg.N), nil
}

// SoftmaxBackwardCost models the (fused) softmax backward kernel: one
// streaming pass over the probability matrix.
func SoftmaxBackwardCost(d *gpusim.Device, cfg SoftmaxConfig, fused bool) gpusim.KernelStats {
	matrix := cfg.Bytes()
	launches := 1
	read, write := matrix, matrix
	if !fused {
		// The unfused baseline recomputes through separate kernels and
		// round-trips an intermediate matrix.
		launches = 2
		read, write = 2*matrix, 2*matrix
	}
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("softmax-bwd %s", cfg.String()),
		GridBlocks:        cfg.N,
		Block:             gpusim.BlockResources{ThreadsPerBlock: softmaxBlockThreads(cfg.Classes), RegsPerThread: 24},
		Launches:          launches,
		FLOPs:             float64(cfg.Elems()) * 2,
		ComputeEfficiency: 0.25,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    write,
		UsefulReadBytes:   matrix,
		UsefulWriteBytes:  matrix,
	}
}

// ReLUBackward masks the incoming gradient with the forward activation's
// sign: dIn = dOut where the forward input was positive, 0 elsewhere.
func ReLUBackward(in, dOut *tensor.Tensor) (*tensor.Tensor, error) {
	dIn := tensor.New(in.Shape, dOut.Layout)
	if err := ReLUBackwardInto(in, dOut, dIn); err != nil {
		return nil, err
	}
	return dIn, nil
}

// ReLUBackwardInto is the allocation-free variant of ReLUBackward.  Every
// element of dIn is overwritten.  When all three tensors share a layout it is
// a single linear pass over the backing slices; dIn may alias dOut (the mask
// reads in, writes only dIn).
//
//memcnn:noalloc
func ReLUBackwardInto(in, dOut, dIn *tensor.Tensor) error {
	if in.Shape != dOut.Shape {
		return fmt.Errorf("kernels: relu backward shape mismatch %v vs %v", in.Shape, dOut.Shape)
	}
	if dIn.Shape != in.Shape {
		return fmt.Errorf("kernels: relu backward dIn shape %v, want %v", dIn.Shape, in.Shape)
	}
	if in.Layout == dOut.Layout && dOut.Layout == dIn.Layout {
		for i, v := range in.Data {
			if v > 0 {
				dIn.Data[i] = dOut.Data[i]
			} else {
				dIn.Data[i] = 0
			}
		}
		return nil
	}
	s := in.Shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					var g float32
					if in.At(n, c, h, w) > 0 {
						g = dOut.At(n, c, h, w)
					}
					dIn.Set(n, c, h, w, g)
				}
			}
		}
	}
	return nil
}

// ConvTrainingCost returns the kernel sequence of one training step of a
// convolutional layer (forward + backward-data + backward-filter) in the
// given layout, the quantity the paper's complete forward-backward profiling
// measures.
func ConvTrainingCost(d *gpusim.Device, cfg ConvConfig, chwn bool) []gpusim.KernelStats {
	bwdFilter := ConvBackwardFilterCost(d, cfg)
	if chwn {
		// cuda-convnet's weight-gradient kernel works on the CHWN data
		// directly (no unroll step), so only the GEMM-equivalent part of the
		// weight-gradient cost applies.
		return []gpusim.KernelStats{
			ConvDirectCHWNCost(d, cfg),
			ConvBackwardDataCHWNCost(d, cfg),
			bwdFilter[len(bwdFilter)-1],
		}
	}
	seq := ConvGemmNCHWCost(d, cfg)
	seq = append(seq, ConvBackwardDataNCHWCost(d, cfg)...)
	seq = append(seq, bwdFilter...)
	return seq
}
