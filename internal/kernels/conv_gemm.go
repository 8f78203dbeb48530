package kernels

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// GEMM-based convolution: the Caffe / cuDNN implementation strategy for the
// NCHW layout (Section II.B).  The input is unrolled with im2col into a
// (C·FH·FW) × (N·OutH·OutW) matrix and the convolution becomes one SGEMM with
// the filter bank as the (K) × (C·FH·FW) left operand.  The strategy inherits
// matrix multiplication's robustness across layer shapes, but pays the
// unroll traffic and only reaches high efficiency once the merged matrix
// dimensions are large (Fig. 4b).

// ConvAlgorithm identifies a CPU convolution execution strategy of the
// planned runtime: the cuda-convnet style direct kernel, the Caffe/cuDNN
// style im2col+GEMM path, or the cuDNN v4 style frequency-domain FFT path.
// internal/autotune selects between them per layer shape and
// internal/runtime records the choice in the compiled op.
type ConvAlgorithm int

// The convolution algorithms the planned runtime selects between.
const (
	// ConvAlgDirect is the direct convolution (ConvDirectInto).
	ConvAlgDirect ConvAlgorithm = iota
	// ConvAlgGemm is the im2col+GEMM convolution (ConvIm2colGemmInto).
	ConvAlgGemm
	// ConvAlgFFT is the frequency-domain convolution (ConvFFTInto).
	ConvAlgFFT
)

// String names the algorithm.
func (a ConvAlgorithm) String() string {
	switch a {
	case ConvAlgDirect:
		return "direct"
	case ConvAlgGemm:
		return "im2col+gemm"
	case ConvAlgFFT:
		return "fft"
	default:
		return fmt.Sprintf("ConvAlgorithm(%d)", int(a))
	}
}

// PackConvFilters flattens a filter bank into the K × (C·FH·FW) row-major
// left operand of the GEMM formulation.  Filters are stored with Co
// outermost (tensor.Filters), so the flattening is a straight copy in
// logical order; the runtime packs each conv layer once at compile time.
func PackConvFilters(filters *tensor.Tensor, cfg ConvConfig) ([]float32, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if filters.Shape != cfg.FilterShape() {
		return nil, fmt.Errorf("kernels: filter shape %v does not match config %v", filters.Shape, cfg.FilterShape())
	}
	kdim := cfg.ReductionLength()
	packed := make([]float32, cfg.K*kdim)
	for k := 0; k < cfg.K; k++ {
		idx := k * kdim
		for c := 0; c < cfg.C; c++ {
			for fh := 0; fh < cfg.FH; fh++ {
				for fw := 0; fw < cfg.FW; fw++ {
					packed[idx] = filters.At(k, c, fh, fw)
					idx++
				}
			}
		}
	}
	return packed, nil
}

// ConvGemmWorkspaceElems returns the scratch ConvIm2colGemmInto needs, in
// float32 elements: the single-image unroll matrix, plus a product staging
// area when the output layout is not NCHW (for NCHW the GEMM writes each
// image's K×OutH×OutW block straight into the output storage).
func ConvGemmWorkspaceElems(cfg ConvConfig, outLayout tensor.Layout) int {
	cfg = cfg.withDefaults()
	ohw := cfg.OutH() * cfg.OutW()
	elems := cfg.ReductionLength() * ohw
	if outLayout != tensor.NCHW {
		elems += cfg.K * ohw
	}
	return elems
}

// ConvIm2colGemmInto is the allocation-free production form of the GEMM
// convolution: it unrolls one image at a time into the caller-provided
// scratch (at least ConvGemmWorkspaceElems(cfg, out.Layout) elements,
// contents unspecified on entry) and multiplies it by the pre-packed filter
// operand (see PackConvFilters).  Any input and output layouts are accepted;
// the accumulation order per output element is fixed by GemmInto, so results
// are bit-identical to ConvIm2colGemm regardless of layout, batching or
// worker count.
//
//memcnn:noalloc
func ConvIm2colGemmInto(in *tensor.Tensor, packed []float32, out *tensor.Tensor, cfg ConvConfig, scratch []float32) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if in.Shape != cfg.InputShape() {
		return fmt.Errorf("kernels: conv input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	if out.Shape != cfg.OutputShape() {
		return fmt.Errorf("kernels: conv output shape %v does not match config %v", out.Shape, cfg.OutputShape())
	}
	kdim := cfg.ReductionLength()
	if len(packed) != cfg.K*kdim {
		return fmt.Errorf("kernels: packed filters have %d elements, want %d", len(packed), cfg.K*kdim)
	}
	if need := ConvGemmWorkspaceElems(cfg, out.Layout); len(scratch) < need {
		return fmt.Errorf("kernels: gemm conv scratch has %d elements, want at least %d", len(scratch), need)
	}
	outH, outW := cfg.OutH(), cfg.OutW()
	ohw := outH * outW
	unroll := scratch[:kdim*ohw]
	directOut := out.Layout == tensor.NCHW
	var prod []float32
	if !directOut {
		prod = scratch[kdim*ohw : kdim*ohw+cfg.K*ohw]
	}
	sn, sc, sh, sw := in.Shape.Strides(in.Layout)
	on, oc, ohs, ows := out.Shape.Strides(out.Layout)
	for n := 0; n < cfg.N; n++ {
		im2colRows(in.Data, n*sn, sc, sh, sw, cfg, unroll, 0, kdim)
		dst := prod
		if directOut {
			dst = out.Data[n*cfg.K*ohw : (n+1)*cfg.K*ohw]
		}
		if err := GemmInto(packed, unroll, dst, cfg.K, ohw, kdim); err != nil {
			return err
		}
		if directOut {
			continue
		}
		// Scatter the K × (OutH·OutW) product into the output layout.
		base := n * on
		for k := 0; k < cfg.K; k++ {
			row := prod[k*ohw : (k+1)*ohw]
			col := 0
			for oh := 0; oh < outH; oh++ {
				off := base + k*oc + oh*ohs
				for ow := 0; ow < outW; ow++ {
					out.Data[off+ow*ows] = row[col]
					col++
				}
			}
		}
	}
	return nil
}

// ConvIm2colGemm is the functional (allocating) reference for the GEMM
// convolution path.  It packs the filters and delegates to
// ConvIm2colGemmInto, so its output is bit-identical to the planned
// runtime's GEMM path and numerically identical (up to float rounding) to
// ConvDirect; the cross-check is part of the test suite.
func ConvIm2colGemm(in, filters *tensor.Tensor, cfg ConvConfig, outLayout tensor.Layout) (*tensor.Tensor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if in.Shape != cfg.InputShape() {
		return nil, fmt.Errorf("kernels: conv input shape %v does not match config %v", in.Shape, cfg.InputShape())
	}
	packed, err := PackConvFilters(filters, cfg)
	if err != nil {
		return nil, err
	}
	out := tensor.New(cfg.OutputShape(), outLayout)
	scratch := make([]float32, ConvGemmWorkspaceElems(cfg, outLayout))
	if err := ConvIm2colGemmInto(in, packed, out, cfg, scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// ConvGemmNCHWCost returns the kernel sequence of the NCHW GEMM convolution:
// the im2col unroll followed by the SGEMM.  1×1 stride-1 convolutions skip
// the unroll, as Caffe and cuDNN do.
func ConvGemmNCHWCost(d *gpusim.Device, cfg ConvConfig) []gpusim.KernelStats {
	cfg = cfg.withDefaults()
	gemm := GemmCost(d, ConvGemmShape(cfg))
	gemm.Name = fmt.Sprintf("gemm-conv NCHW %s", cfg.String())
	if cfg.FH == 1 && cfg.FW == 1 && cfg.StrideH == 1 && cfg.StrideW == 1 && cfg.PadH == 0 && cfg.PadW == 0 {
		return []gpusim.KernelStats{gemm}
	}
	return []gpusim.KernelStats{Im2colCost(d, cfg), gemm}
}

// ConvGemmShape returns the GEMM dimensions of the unrolled convolution:
// M = Co, N = Ni*OutH*OutW, K = Ci*FH*FW.
func ConvGemmShape(cfg ConvConfig) GemmCostConfig {
	cfg = cfg.withDefaults()
	return GemmCostConfig{
		M: cfg.K,
		N: cfg.N * cfg.OutH() * cfg.OutW(),
		K: cfg.ReductionLength(),
	}
}

// ConvGemmWorkspaceBytes returns the device memory the GEMM path needs beyond
// input, output and filters (the unrolled matrix).
func ConvGemmWorkspaceBytes(cfg ConvConfig) int64 { return Im2colWorkspaceBytes(cfg) }
