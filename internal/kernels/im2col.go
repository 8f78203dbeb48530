package kernels

import (
	"fmt"
	"runtime"
	"sync"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// im2col: the matrix-unroll step of the Caffe/cuDNN convolution path.  It
// expands the NCHW input tensor into a 2-D matrix so that the convolution
// becomes a single GEMM (Section II.B).  The expansion multiplies the input
// footprint by FH*FW/ (StrideH*StrideW), which is the "matrix transformation
// overhead" the paper blames for the poor NCHW performance at small C.

// Im2col expands the input batch into the unrolled matrix B of the GEMM
// formulation.  The result is row-major with
//
//	rows = C*FH*FW            (the reduction dimension K of the GEMM)
//	cols = N*OutH*OutW        (one column per output pixel of the batch)
//
// Out-of-range taps (from padding) contribute zeros.
func Im2col(in *tensor.Tensor, cfg ConvConfig) ([]float32, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if in.Shape != cfg.InputShape() {
		return nil, fmt.Errorf("kernels: im2col input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	outH, outW := cfg.OutH(), cfg.OutW()
	rows := cfg.C * cfg.FH * cfg.FW
	cols := cfg.N * outH * outW
	out := make([]float32, rows*cols)

	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		lo := wkr * rows / workers
		hi := (wkr + 1) * rows / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for row := lo; row < hi; row++ {
				c := row / (cfg.FH * cfg.FW)
				rem := row % (cfg.FH * cfg.FW)
				fh := rem / cfg.FW
				fw := rem % cfg.FW
				dst := out[row*cols : (row+1)*cols]
				col := 0
				for n := 0; n < cfg.N; n++ {
					for oh := 0; oh < outH; oh++ {
						ih := oh*cfg.StrideH - cfg.PadH + fh
						for ow := 0; ow < outW; ow++ {
							iw := ow*cfg.StrideW - cfg.PadW + fw
							if ih >= 0 && ih < cfg.H && iw >= 0 && iw < cfg.W {
								dst[col] = in.At(n, c, ih, iw)
							}
							col++
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return out, nil
}

// im2colRows fills rows [lo,hi) of the single-image unroll matrix dst, a
// row-major (C·FH·FW) × (OutH·OutW) matrix, reading the input through
// explicit strides so any layout is supported without per-element bounds
// checks.  base is the linear offset of the image's first element; every dst
// element of the rows is written (out-of-range taps with zero), so dst may
// hold garbage on entry.
func im2colRows(data []float32, base, sc, sh, sw int, cfg ConvConfig, dst []float32, lo, hi int) {
	outH, outW := cfg.OutH(), cfg.OutW()
	ohw := outH * outW
	for row := lo; row < hi; row++ {
		c := row / (cfg.FH * cfg.FW)
		rem := row % (cfg.FH * cfg.FW)
		fh := rem / cfg.FW
		fw := rem % cfg.FW
		rowDst := dst[row*ohw : (row+1)*ohw]
		for oh := 0; oh < outH; oh++ {
			seg := rowDst[oh*outW : (oh+1)*outW]
			ih := oh*cfg.StrideH - cfg.PadH + fh
			if ih < 0 || ih >= cfg.H {
				for i := range seg {
					seg[i] = 0
				}
				continue
			}
			// Valid ow range: 0 <= ow*StrideW - PadW + fw < W.  A wide filter
			// tap can leave no valid column at all (fw beyond W+PadW-1, or
			// every in-range ow swallowed by the left padding).
			owLo, owHi := outRange(fw, cfg.StrideW, cfg.PadW, cfg.W, outW)
			if owLo >= owHi {
				for i := range seg {
					seg[i] = 0
				}
				continue
			}
			for i := 0; i < owLo; i++ {
				seg[i] = 0
			}
			for i := owHi; i < outW; i++ {
				seg[i] = 0
			}
			src := base + c*sc + ih*sh + (owLo*cfg.StrideW-cfg.PadW+fw)*sw
			if sw == 1 && cfg.StrideW == 1 {
				copy(seg[owLo:owHi], data[src:src+owHi-owLo])
				continue
			}
			step := cfg.StrideW * sw
			for ow := owLo; ow < owHi; ow++ {
				seg[ow] = data[src]
				src += step
			}
		}
	}
}

// Im2colCost models the GPU im2col kernel: it reads the input once (the
// source reads along W are coalesced in NCHW) and writes the expanded matrix,
// which is FH*FW/(SH*SW) times larger than the input.  The expanded matrix is
// then read back by the GEMM, so the expansion costs DRAM bandwidth twice.
// Only the write half is accounted here; the read-back belongs to the GEMM's
// B-operand traffic.
func Im2colCost(d *gpusim.Device, cfg ConvConfig) gpusim.KernelStats {
	cfg = cfg.withDefaults()
	inBytes := float64(cfg.InputShape().Elems()) * 4
	expandedBytes := float64(cfg.C*cfg.FH*cfg.FW) * float64(cfg.N*cfg.OutH()*cfg.OutW()) * 4

	// Source loads: each input element is touched FH*FW/(SH*SW) times, but
	// consecutive output columns read overlapping rows that hit in L1/L2, so
	// the DRAM read traffic stays close to one pass over the input.
	readBytes := inBytes * 1.15

	threads := cfg.N * cfg.OutH() * cfg.OutW()
	blocks := ceilDiv(threads, 256)
	return gpusim.KernelStats{
		Name:       fmt.Sprintf("im2col %s", cfg.String()),
		GridBlocks: blocks,
		Block:      gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 24},
		Launches:   1,
		// Pure data movement: negligible arithmetic.
		FLOPs:             0,
		ComputeEfficiency: 1,
		DRAMReadBytes:     readBytes,
		DRAMWriteBytes:    expandedBytes,
		UsefulReadBytes:   inBytes,
		UsefulWriteBytes:  expandedBytes,
	}
}

// Im2colWorkspaceBytes returns the extra device memory the unrolled matrix
// needs, the figure the paper quotes when discussing transformation memory
// overhead.
func Im2colWorkspaceBytes(cfg ConvConfig) int64 {
	cfg = cfg.withDefaults()
	return int64(cfg.C*cfg.FH*cfg.FW) * int64(cfg.N*cfg.OutH()*cfg.OutW()) * 4
}
