package kernels

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// Pooling kernels (Sections IV.B and V.A).  Pooling is memory bound: its
// performance is decided by how the window loads map onto memory transactions
// (layout) and by how much of the overlapping-window redundancy is removed
// (register-level reuse / thread coarsening).

// Pool is the functional reference pooling operator.  The output tensor uses
// the same layout as the input; the layout does not change the values, only
// the memory behaviour, which is the whole point of the paper's Section IV.B.
func Pool(in *tensor.Tensor, cfg PoolConfig) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), in.Layout)
	if err := PoolInto(in, out, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// PoolInto is the allocation-free variant of Pool: it writes into a
// caller-provided output tensor of the config's output shape (any layout).
// Every output element is overwritten, so the destination's prior contents do
// not matter.
//
//memcnn:noalloc
func PoolInto(in, out *tensor.Tensor, cfg PoolConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: pool input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if out.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: pool output shape %v does not match config %v", out.Shape, cfg.OutputShape())
	}
	parallelPlanes(cfg.N*cfg.C, pooler{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(in), out: stridesOf(out)})
	return nil
}

// pooler is one pooling call with its strides hoisted.
type pooler struct {
	cfg        PoolConfig
	outH, outW int
	in, out    strided
}

// window reduces the window whose top-left input element is at offset q:
// the maximum (first-seen on ties), or the float64 mean in y→x order.
func (pl *pooler) window(q int) float32 {
	in, win := &pl.in, pl.cfg.Window
	if pl.cfg.Op == MaxPool {
		best := in.data[q]
		for y := 0; y < win; y++ {
			r := q + y*in.h
			for x := 0; x < win; x++ {
				if v := in.data[r]; v > best {
					best = v
				}
				r += in.w
			}
		}
		return best
	}
	var sum float64
	for y := 0; y < win; y++ {
		r := q + y*in.h
		for x := 0; x < win; x++ {
			sum += float64(in.data[r])
			r += in.w
		}
	}
	return float32(sum / float64(win*win))
}

// plane computes the (n, c) output feature map.
func (pl pooler) plane(p int) {
	in, out, s := &pl.in, &pl.out, pl.cfg.Stride
	n, c := p/pl.cfg.C, p%pl.cfg.C
	for oh := 0; oh < pl.outH; oh++ {
		for ow := 0; ow < pl.outW; ow++ {
			out.data[n*out.n+c*out.c+oh*out.h+ow*out.w] =
				pl.window(n*in.n + c*in.c + oh*s*in.h + ow*s*in.w)
		}
	}
}

// PoolCoarsened is the functional counterpart of the register-reuse optimised
// pooling kernel: each logical "thread" computes an expandH×expandW tile of
// output elements and loads the union of their input windows exactly once.
// The numerical result is identical to Pool; the test suite asserts it.
func PoolCoarsened(in *tensor.Tensor, cfg PoolConfig, expandH, expandW int) (*tensor.Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if expandH <= 0 || expandW <= 0 {
		return nil, fmt.Errorf("kernels: expansion factors must be positive (%d, %d)", expandH, expandW)
	}
	if in.Shape != cfg.InputShape() {
		return nil, fmt.Errorf("kernels: pool input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	out := tensor.New(cfg.OutputShape(), in.Layout)
	outH, outW := cfg.OutH(), cfg.OutW()
	unionH := (expandH-1)*cfg.Stride + cfg.Window
	unionW := (expandW-1)*cfg.Stride + cfg.Window

	type job struct{ n, c int }
	jobs := make(chan job, cfg.N*cfg.C)
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			jobs <- job{n, c}
		}
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// window caches the union of input windows of one output tile,
			// standing in for the per-thread register file.
			window := make([]float32, unionH*unionW)
			for j := range jobs {
				for ohBase := 0; ohBase < outH; ohBase += expandH {
					for owBase := 0; owBase < outW; owBase += expandW {
						// Load the union once.
						h0, w0 := ohBase*cfg.Stride, owBase*cfg.Stride
						for y := 0; y < unionH; y++ {
							for x := 0; x < unionW; x++ {
								ih, iw := h0+y, w0+x
								if ih < cfg.H && iw < cfg.W {
									window[y*unionW+x] = in.At(j.n, j.c, ih, iw)
								} else {
									window[y*unionW+x] = float32(math.Inf(-1))
								}
							}
						}
						// Produce the tile from the cached union.
						for dy := 0; dy < expandH && ohBase+dy < outH; dy++ {
							for dx := 0; dx < expandW && owBase+dx < outW; dx++ {
								out.Set(j.n, j.c, ohBase+dy, owBase+dx,
									poolFromCache(window, unionW, cfg, dy, dx))
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	return out, nil
}

func poolFromCache(window []float32, unionW int, cfg PoolConfig, dy, dx int) float32 {
	y0, x0 := dy*cfg.Stride, dx*cfg.Stride
	switch cfg.Op {
	case MaxPool:
		best := window[y0*unionW+x0]
		for y := 0; y < cfg.Window; y++ {
			for x := 0; x < cfg.Window; x++ {
				if v := window[(y0+y)*unionW+(x0+x)]; v > best {
					best = v
				}
			}
		}
		return best
	default:
		var sum float64
		for y := 0; y < cfg.Window; y++ {
			for x := 0; x < cfg.Window; x++ {
				sum += float64(window[(y0+y)*unionW+(x0+x)])
			}
		}
		return float32(sum / float64(cfg.Window*cfg.Window))
	}
}

// loadRedundancy returns how many times each input element is read by a naive
// one-output-per-thread pooling kernel (window loads divided by input size).
func loadRedundancy(cfg PoolConfig) float64 {
	loads := float64(cfg.OutH()) * float64(cfg.OutW()) * float64(cfg.Window*cfg.Window)
	return loads / (float64(cfg.H) * float64(cfg.W))
}

// poolL2Filter is the fraction of redundant re-loads that the L2 cache
// absorbs for the CHWN kernel, whose warp works through a feature-map slice
// with good temporal locality.
const poolL2Filter = 0.5

// PoolCHWNCost models the cuda-convnet pooling kernel on the CHWN layout:
// the batch dimension is innermost, so every window load of a warp is fully
// coalesced; the only inefficiency left is the redundant loading of
// overlapping windows, partially filtered by L2.
func PoolCHWNCost(d *gpusim.Device, cfg PoolConfig) gpusim.KernelStats {
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4

	red := loadRedundancy(cfg)
	effRed := 1 + (red-1)*(1-poolL2Filter)
	if effRed < 1 {
		effRed = 1
	}
	read := inBytes * effRed

	outputs := cfg.OutputShape().Elems()
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("pool CHWN %s", cfg.String()),
		GridBlocks:        ceilDiv(outputs, 128),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 128, RegsPerThread: 24},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    outBytes,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  outBytes,
	}
}

// PoolNCHWVariant selects which NCHW library kernel is modelled.
type PoolNCHWVariant int

// The two NCHW pooling implementations the paper measures.
const (
	PoolCaffe PoolNCHWVariant = iota // Caffe: plain strided kernel
	PoolCuDNN                        // cuDNN: strided kernel + backward mask write
)

// PoolNCHWCost models the Caffe/cuDNN pooling kernel on the NCHW layout: one
// thread per output element with the output width innermost, so consecutive
// threads read input addresses strided by the pooling stride.  The strided
// warp accesses over-fetch (Section IV.B), and the overlapping-window
// redundancy is not captured by any on-chip reuse.
func PoolNCHWCost(d *gpusim.Device, cfg PoolConfig, variant PoolNCHWVariant) gpusim.KernelStats {
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4

	// Representative warp: 32 consecutive output positions along the output
	// width (wrapping to the next row when the feature map is narrow); each
	// window tap issues one such access.
	eff := nchwPoolWarpEfficiency(d, cfg)

	red := loadRedundancy(cfg)
	// The NCHW kernel walks whole feature maps before returning to nearby
	// rows, so only a small part of the redundancy hits in L2.
	effRed := 1 + (red-1)*0.85
	read := inBytes * effRed / eff

	write := outBytes
	name := "pool NCHW (Caffe)"
	if variant == PoolCuDNN {
		// cuDNN's kernel also emits the argmax mask used by the backward
		// pass, doubling the store traffic.
		write *= 2
		name = "pool NCHW (cuDNN)"
	}
	outputs := cfg.OutputShape().Elems()
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("%s %s", name, cfg.String()),
		GridBlocks:        ceilDiv(outputs, 256),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 28},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read,
		DRAMWriteBytes:    write,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  outBytes,
	}
}

// nchwPoolWarpEfficiency builds the real address pattern of one warp of the
// NCHW pooling kernel and runs it through the coalescer.
func nchwPoolWarpEfficiency(d *gpusim.Device, cfg PoolConfig) float64 {
	outW := cfg.OutW()
	addrs := make([]int64, d.WarpSize)
	for t := 0; t < d.WarpSize; t++ {
		oh := t / outW
		ow := t % outW
		// Input address of the window origin for this output element.
		addrs[t] = int64(oh*cfg.Stride*cfg.W+ow*cfg.Stride) * 4
	}
	w := gpusim.WarpAccess{Addresses: addrs, Bytes: 4}
	eff := w.Efficiency(d.TransactionBytes)
	if eff <= 0 {
		return 1
	}
	return eff
}

// PoolExpansion describes the working-set expansion (thread coarsening)
// factors of the optimised CHWN pooling kernel of Section V.A.
type PoolExpansion struct {
	H int
	W int
}

// Outputs returns the number of output elements one thread produces.
func (e PoolExpansion) Outputs() int { return e.H * e.W }

// poolBaseRegs is the register demand of the un-coarsened pooling kernel.
const poolBaseRegs = 20

// PoolCoarsenedRegisters returns the per-thread register demand of the
// coarsened kernel: the base working set plus the cached union of input
// windows.
func PoolCoarsenedRegisters(cfg PoolConfig, e PoolExpansion) int {
	unionH := (e.H-1)*cfg.Stride + cfg.Window
	unionW := (e.W-1)*cfg.Stride + cfg.Window
	regs := poolBaseRegs + unionH*unionW + e.Outputs()
	if regs > 255 {
		regs = 255
	}
	return regs
}

// PoolCHWNCoarsenedCost models the optimised pooling kernel: CHWN layout plus
// per-thread working-set expansion.  Each thread loads the union of the
// windows of its output tile once, removing the intra-tile redundant loads;
// pushing the expansion too far raises register pressure until spills and
// lost occupancy take the gains back, which is the trade-off the auto-tuner
// of internal/autotune searches.
func PoolCHWNCoarsenedCost(d *gpusim.Device, cfg PoolConfig, e PoolExpansion) gpusim.KernelStats {
	if e.H <= 0 {
		e.H = 1
	}
	if e.W <= 0 {
		e.W = 1
	}
	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4

	// Per-tile loads: the union of the tile's windows, loaded once.
	unionH := (e.H-1)*cfg.Stride + cfg.Window
	unionW := (e.W-1)*cfg.Stride + cfg.Window
	tilesH := ceilDiv(cfg.OutH(), e.H)
	tilesW := ceilDiv(cfg.OutW(), e.W)
	loadsPerPlane := float64(tilesH*tilesW) * float64(unionH*unionW)
	red := loadsPerPlane / (float64(cfg.H) * float64(cfg.W))
	if red < 1 {
		red = 1
	}
	effRed := 1 + (red-1)*(1-poolL2Filter)
	read := inBytes * effRed

	regs := PoolCoarsenedRegisters(cfg, e)
	// Register spills beyond the 63-register sweet spot cost local-memory
	// traffic proportional to the spilled working set.
	var spillBytes float64
	if regs > 63 {
		spillTiles := float64(cfg.N * cfg.C * tilesH * tilesW)
		spillBytes = spillTiles * float64(regs-63) * 4 * 2 // store + reload
	}

	outputs := cfg.OutputShape().Elems()
	threads := ceilDiv(outputs, e.Outputs())
	return gpusim.KernelStats{
		Name:              fmt.Sprintf("pool CHWN coarsened %dx%d %s", e.H, e.W, cfg.String()),
		GridBlocks:        ceilDiv(threads, 128),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 128, RegsPerThread: regs},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: 0.5,
		DRAMReadBytes:     read + spillBytes,
		DRAMWriteBytes:    outBytes,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  outBytes,
	}
}
