package kernels

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// Direct convolution.  On the GPU this is the cuda-convnet strategy for the
// CHWN layout (Section II.B / IV.A): each thread block processes a tile of
// output pixels for a group of filters and a group of 32·imagesPerThread
// images; the batch dimension N is innermost in memory, so the 32 threads of
// a warp read 32 consecutive images and every global access is coalesced.
// Each thread additionally keeps imagesPerThread images in registers, which
// is what makes the kernel's throughput so sensitive to N (Fig. 4a).
//
// The CPU kernel below keeps the same two ideas.  Every operand's layout
// strides are read once per call and the raw Data slices are indexed
// directly, with each output position's filter-tap range clipped at the
// padding edges up front, so the multiply-accumulate loop carries no bounds
// test and no layout switch.  When input and output both keep images
// innermost (N-stride 1, as in CHWN and HWCN), the kernel walks (filter,
// output-row) planes and computes four consecutive images at once in four
// independent accumulators: each filter value is loaded once and used four
// times, the CPU analogue of cuda-convnet's per-thread image registers, and
// the four image loads are adjacent in memory.  Every output element is
// still accumulated by one worker in float64, in ascending c→fh→fw order, so
// the result is bit-identical for every layout, blocking and worker count.

// strided is a tensor operand s with its layout strides hoisted: element
// (n, c, h, w) lives at s.data[n*s.n + c*s.c + h*s.h + w*s.w].
type strided struct {
	data       []float32
	n, c, h, w int
}

func stridesOf(t *tensor.Tensor) strided {
	sn, sc, sh, sw := t.Shape.Strides(t.Layout)
	return strided{data: t.Data, n: sn, c: sc, h: sh, w: sw}
}

// tapRange clips the filter taps of output position o to the input: taps
// [lo, hi) of a filter of extent f read input coordinates i0+lo .. i0+hi-1,
// all inside [0, size).  hi <= lo when the window lies wholly in padding.
func tapRange(o, stride, pad, f, size int) (i0, lo, hi int) {
	i0 = o*stride - pad
	lo, hi = 0, f
	if i0 < 0 {
		lo = -i0
	}
	if i0+f > size {
		hi = size - i0
	}
	return i0, lo, hi
}

// ConvDirect is the functional reference convolution (cross-correlation, as
// in Equation 1 of the paper).  It accepts input tensors in any layout and
// produces the output in outLayout; the arithmetic is identical regardless of
// layout, which is exactly the property the layout study relies on.
func ConvDirect(in, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), outLayout)
	if err := ConvDirectInto(in, filters, out, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// ConvDirectInto is the allocation-free variant of ConvDirect: it writes into
// a caller-provided output tensor of the config's output shape (any layout).
// Every output element is overwritten, so the destination's prior contents do
// not matter.
//
//memcnn:noalloc
func ConvDirectInto(in, filters, out *tensor.Tensor, cfg ConvConfig) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: conv input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if filters.Shape != cfg.FilterShape() {
		return fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	if out.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: conv output shape %v does not match config %v", out.Shape, cfg.OutputShape())
	}
	d := directConv{cfg: cfg, outH: cfg.OutH(), outW: cfg.OutW(),
		in: stridesOf(in), f: stridesOf(filters), out: stridesOf(out)}
	if d.in.n == 1 && d.out.n == 1 { // images innermost in input and output
		parallelPlanes(cfg.K*d.outH, directConvImagesInner{d})
		return nil
	}
	parallelPlanes(cfg.N*cfg.K, d)
	return nil
}

// directConv is one direct-convolution call with its strides hoisted.
type directConv struct {
	cfg        ConvConfig
	outH, outW int
	in, f, out strided
}

// dot accumulates one output element of filter k over taps
// [fhLo, fhHi) × [fwLo, fwHi); ib is the input offset of tap (0, 0), which
// may lie in the padding.
func (d *directConv) dot(ib, k, fhLo, fhHi, fwLo, fwHi int) float64 {
	in, f := &d.in, &d.f
	var acc float64
	for c := 0; c < d.cfg.C; c++ {
		for fh := fhLo; fh < fhHi; fh++ {
			ip := ib + c*in.c + fh*in.h + fwLo*in.w
			fp := k*f.n + c*f.c + fh*f.h + fwLo*f.w
			for fw := fwLo; fw < fwHi; fw++ {
				acc += float64(in.data[ip]) * float64(f.data[fp])
				ip += in.w
				fp += f.w
			}
		}
	}
	return acc
}

// plane computes the (n, k) output feature map.
func (d directConv) plane(p int) {
	cfg, in, out := &d.cfg, &d.in, &d.out
	n, k := p/cfg.K, p%cfg.K
	for oh := 0; oh < d.outH; oh++ {
		ih0, fhLo, fhHi := tapRange(oh, cfg.StrideH, cfg.PadH, cfg.FH, cfg.H)
		for ow := 0; ow < d.outW; ow++ {
			iw0, fwLo, fwHi := tapRange(ow, cfg.StrideW, cfg.PadW, cfg.FW, cfg.W)
			acc := d.dot(n*in.n+ih0*in.h+iw0*in.w, k, fhLo, fhHi, fwLo, fwHi)
			out.data[n*out.n+k*out.c+oh*out.h+ow*out.w] = float32(acc)
		}
	}
}

// directConvImagesInner is the images-innermost form of directConv: plane p
// is output row (k, oh) for every image, computed four images at a time with
// the remainder one by one.
type directConvImagesInner struct{ directConv }

func (d directConvImagesInner) plane(p int) {
	cfg, in, f, out := &d.cfg, &d.in, &d.f, &d.out
	k, oh := p/d.outH, p%d.outH
	ih0, fhLo, fhHi := tapRange(oh, cfg.StrideH, cfg.PadH, cfg.FH, cfg.H)
	for ow := 0; ow < d.outW; ow++ {
		iw0, fwLo, fwHi := tapRange(ow, cfg.StrideW, cfg.PadW, cfg.FW, cfg.W)
		ib := ih0*in.h + iw0*in.w
		o := k*out.c + oh*out.h + ow*out.w
		n := 0
		for ; n+4 <= cfg.N; n += 4 {
			var a0, a1, a2, a3 float64
			for c := 0; c < cfg.C; c++ {
				for fh := fhLo; fh < fhHi; fh++ {
					ip := ib + n + c*in.c + fh*in.h + fwLo*in.w
					fp := k*f.n + c*f.c + fh*f.h + fwLo*f.w
					for fw := fwLo; fw < fwHi; fw++ {
						x := in.data[ip : ip+4 : ip+4]
						w := float64(f.data[fp])
						a0 += float64(x[0]) * w
						a1 += float64(x[1]) * w
						a2 += float64(x[2]) * w
						a3 += float64(x[3]) * w
						ip += in.w
						fp += f.w
					}
				}
			}
			y := out.data[o+n : o+n+4 : o+n+4]
			y[0], y[1], y[2], y[3] = float32(a0), float32(a1), float32(a2), float32(a3)
		}
		for ; n < cfg.N; n++ {
			out.data[o+n] = float32(d.dot(ib+n, k, fhLo, fhHi, fwLo, fwHi))
		}
	}
}

// Blocking parameters of the modelled cuda-convnet direct-convolution kernel.
const (
	directWarpImages      = 32 // images handled by one warp (coalescing unit)
	directFiltersPerBlock = 32 // filters processed by one thread block
	directPixelsPerBlock  = 16 // output pixels processed by one thread block
	directFiltersPerThrd  = 4
)

// DirectImagesPerThread returns the register-blocking factor the cuda-convnet
// kernel selects for a batch size: four images per thread when N is a
// multiple of 128, two when it is a multiple of 64, otherwise one
// (Section IV.A).  The factor controls how often filter values loaded into
// registers are reused, hence the strong sensitivity of the CHWN layout to N.
func DirectImagesPerThread(n int) int {
	switch {
	case n >= 128:
		return 4
	case n >= 64:
		return 2
	default:
		return 1
	}
}

// directILPFactor maps the register-blocking factor to the fraction of issue
// slots the kernel can keep busy: more in-flight independent FMAs per thread
// hide more of the shared-memory and pipeline latency.
func directILPFactor(imagesPerThread int) float64 {
	switch {
	case imagesPerThread >= 4:
		return 0.82
	case imagesPerThread >= 2:
		return 0.55
	default:
		return 0.42
	}
}

// DirectConvEfficiency returns the modelled fraction of peak arithmetic
// throughput of the CHWN direct convolution for a layer configuration.
func DirectConvEfficiency(cfg ConvConfig) float64 {
	cfg = cfg.withDefaults()
	p := DirectImagesPerThread(cfg.N)
	ff := directFiltersPerThrd
	if cfg.K < ff {
		ff = cfg.K
	}
	// Instruction mix: p*ff FMAs per inner-loop step versus the loads and
	// address arithmetic that accompany them.
	issue := float64(p*ff) / float64(p*ff+p+ff+4)
	ilp := directILPFactor(p)
	// Partial warps along N waste coalescing and execution lanes.
	coalesce := float64(cfg.N) / float64(directWarpImages)
	if coalesce > 1 {
		coalesce = 1
	}
	// A very short reduction loop (small C*FH*FW) leaves the loop overhead
	// unamortised.
	shortLoop := float64(cfg.ReductionLength()) / 48
	if shortLoop > 1 {
		shortLoop = 1
	}
	// Batches beyond 128 improve occupancy slightly (Fig. 4a keeps rising).
	occBonus := 1.0
	if cfg.N > 128 {
		occBonus = 1 + float64(cfg.N-128)/3200
		if occBonus > 1.15 {
			occBonus = 1.15
		}
	}
	eff := 0.75 * issue * ilp * coalesce * shortLoop * occBonus
	if eff > 1 {
		eff = 1
	}
	if eff <= 0 {
		eff = 0.01
	}
	return eff
}

// ConvDirectCHWNCost returns the kernel statistics of the cuda-convnet style
// direct convolution on the CHWN layout.
func ConvDirectCHWNCost(d *gpusim.Device, cfg ConvConfig) gpusim.KernelStats {
	cfg = cfg.withDefaults()
	p := DirectImagesPerThread(cfg.N)

	inBytes := float64(cfg.InputShape().Elems()) * 4
	outBytes := float64(cfg.OutputShape().Elems()) * 4
	filterBytes := float64(cfg.FilterShape().Elems()) * 4

	filterBlocks := ceilDiv(cfg.K, directFiltersPerBlock)
	imageBlocks := ceilDiv(cfg.N, directWarpImages*p)
	pixelBlocks := ceilDiv(cfg.OutH()*cfg.OutW(), directPixelsPerBlock)

	// Thread-level parallelism: one thread per (image group, filter group,
	// output pixel) triple, so the grid grows with every one of N, K and the
	// output area.  This is what keeps the kernel's occupancy high even when
	// a single dimension is small.
	ff := directFiltersPerThrd
	if cfg.K < ff {
		ff = cfg.K
	}
	totalThreads := ceilDiv(cfg.N, p) * ceilDiv(cfg.K, ff) * cfg.OutH() * cfg.OutW()

	// Every filter block re-reads the input; the shared-memory tiles remove
	// the intra-block redundancy of overlapping filter windows.
	inputTraffic := inBytes * float64(filterBlocks)
	// Filters are re-read by every (image block, pixel block) pair, but the
	// filter bank is small and partially survives in L2.
	filterTraffic := filterBytes * float64(imageBlocks) * float64(pixelBlocks)
	if filterBytes < float64(d.L2CacheBytes)/2 {
		filterTraffic = filterBytes * float64(imageBlocks) * (1 + float64(pixelBlocks-1)*0.25)
	}

	blocks := ceilDiv(totalThreads, directWarpImages*directFiltersPerThrd)
	regs := 32 + 16*p // register blocking holds p images per filter in flight
	if regs > 255 {
		regs = 255
	}
	return gpusim.KernelStats{
		Name:       fmt.Sprintf("direct-conv CHWN %s", cfg.String()),
		GridBlocks: blocks,
		Block: gpusim.BlockResources{
			ThreadsPerBlock:   directWarpImages * directFiltersPerThrd,
			RegsPerThread:     regs,
			SharedMemPerBlock: 8 << 10,
		},
		Launches:          1,
		FLOPs:             cfg.FLOPs(),
		ComputeEfficiency: DirectConvEfficiency(cfg),
		DRAMReadBytes:     inputTraffic + filterTraffic,
		DRAMWriteBytes:    outBytes,
		UsefulReadBytes:   inBytes + filterBytes,
		UsefulWriteBytes:  outBytes,
	}
}
