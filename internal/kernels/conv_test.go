package kernels

import (
	"errors"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

// smallConvCases is the set of layer shapes used for cross-implementation
// agreement tests.  They exercise square and rectangular inputs, strides,
// padding, single channels and single filters.
var smallConvCases = []ConvConfig{
	{N: 2, C: 1, H: 8, W: 8, K: 3, FH: 3, FW: 3},
	{N: 3, C: 4, H: 10, W: 10, K: 5, FH: 5, FW: 5},
	{N: 2, C: 3, H: 12, W: 12, K: 4, FH: 3, FW: 3, StrideH: 2, StrideW: 2},
	{N: 1, C: 2, H: 9, W: 7, K: 2, FH: 3, FW: 3},
	{N: 2, C: 2, H: 8, W: 8, K: 2, FH: 1, FW: 1},
	{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1},
	{N: 4, C: 2, H: 6, W: 6, K: 3, FH: 3, FW: 3, StrideH: 3, StrideW: 3},
	// Filters wider than the unpadded input with stride > 1: some taps have
	// no valid column at all (regression for the im2col fast-path bounds).
	{N: 1, C: 1, H: 5, W: 5, K: 1, FH: 9, FW: 9, PadH: 3, PadW: 3, StrideH: 2, StrideW: 2},
	{N: 2, C: 2, H: 5, W: 5, K: 2, FH: 13, FW: 13, PadH: 4, PadW: 4, StrideH: 2, StrideW: 2},
}

func TestConvDirectHandComputed(t *testing.T) {
	// 1 image, 1 channel, 3x3 input, 2x2 filter of ones: each output is the
	// sum of a 2x2 window.
	cfg := ConvConfig{N: 1, C: 1, H: 3, W: 3, K: 1, FH: 2, FW: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	vals := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	copy(in.Data, vals)
	filters := tensor.New(cfg.FilterShape(), tensor.NCHW)
	filters.Fill(1)
	out, err := ConvDirect(in, filters, cfg, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1 + 2 + 4 + 5, 2 + 3 + 5 + 6, 4 + 5 + 7 + 8, 5 + 6 + 8 + 9}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestConvImplementationsAgree(t *testing.T) {
	for _, cfg := range smallConvCases {
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, 1)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)

		direct, err := ConvDirect(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatalf("%v: direct: %v", cfg, err)
		}
		gemm, err := ConvIm2colGemm(tensor.Convert(in, tensor.NCHW), filters, cfg, tensor.CHWN)
		if err != nil {
			t.Fatalf("%v: gemm: %v", cfg, err)
		}
		if !tensor.RelClose(direct, gemm, 1e-4, 1e-4) {
			t.Errorf("%v: GEMM convolution disagrees with direct convolution", cfg)
		}
		fftOut, err := ConvFFT(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatalf("%v: fft: %v", cfg, err)
		}
		if !tensor.RelClose(direct, fftOut, 1e-3, 1e-3) {
			t.Errorf("%v: FFT convolution disagrees with direct convolution", cfg)
		}
	}
}

func TestConvFFTWithPadding(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 5)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 6)
	direct, err := ConvDirect(in, filters, cfg, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	fftOut, err := ConvFFT(in, filters, cfg, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.RelClose(direct, fftOut, 1e-3, 1e-3) {
		t.Error("padded FFT convolution disagrees with direct convolution")
	}
}

func TestConvLayoutInvariance(t *testing.T) {
	// The same logical input in different layouts must give the same output.
	cfg := ConvConfig{N: 3, C: 2, H: 7, W: 7, K: 4, FH: 3, FW: 3}
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 3)
	var ref *tensor.Tensor
	for _, l := range tensor.Layouts {
		in := tensor.Random(cfg.InputShape(), l, 9)
		out, err := ConvDirect(in, filters, cfg, tensor.NCHW)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if !tensor.AllClose(ref, out, 1e-5) {
			t.Errorf("layout %v changed the convolution result", l)
		}
	}
}

func TestConvInputValidation(t *testing.T) {
	cfg := ConvConfig{N: 2, C: 2, H: 6, W: 6, K: 2, FH: 3, FW: 3}
	good := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	badIn := tensor.Random(tensor.Shape{N: 2, C: 2, H: 5, W: 6}, tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 1)
	badFilters := tensor.Filters(cfg.K, cfg.C+1, cfg.FH, cfg.FW, 1)

	if _, err := ConvDirect(badIn, filters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched input accepted by ConvDirect")
	}
	if _, err := ConvDirect(good, badFilters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched filters accepted by ConvDirect")
	}
	if _, err := ConvIm2colGemm(badIn, filters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched input accepted by ConvIm2colGemm")
	}
	if _, err := ConvFFT(good, badFilters, cfg, tensor.NCHW); err == nil {
		t.Error("mismatched filters accepted by ConvFFT")
	}
	badCfg := cfg
	badCfg.K = 0
	if _, err := ConvDirect(good, filters, badCfg, tensor.NCHW); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDirectImagesPerThread(t *testing.T) {
	cases := map[int]int{1: 1, 16: 1, 32: 1, 63: 1, 64: 2, 127: 2, 128: 4, 256: 4, 512: 4}
	for n, want := range cases {
		if got := DirectImagesPerThread(n); got != want {
			t.Errorf("DirectImagesPerThread(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDirectConvEfficiencyIncreasesWithN(t *testing.T) {
	// Fig. 4a: the CHWN direct convolution is highly sensitive to N.
	base := ConvConfig{C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3} // CONV7 shape
	prev := 0.0
	for _, n := range []int{1, 3, 16, 32, 64, 128, 256, 512} {
		cfg := base
		cfg.N = n
		eff := DirectConvEfficiency(cfg)
		if eff < prev {
			t.Errorf("efficiency decreased at N=%d: %v < %v", n, eff, prev)
		}
		if eff <= 0 || eff > 1 {
			t.Errorf("efficiency %v out of range at N=%d", eff, n)
		}
		prev = eff
	}
	small := DirectConvEfficiency(ConvConfig{N: 16, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3})
	big := DirectConvEfficiency(ConvConfig{N: 128, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3})
	if big < 2*small {
		t.Errorf("N=128 efficiency (%v) should be far larger than N=16 (%v)", big, small)
	}
}

func TestConvDirectCostStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, cfg := range smallConvCases {
		s := ConvDirectCHWNCost(d, cfg)
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
		if s.FLOPs != cfg.FLOPs() {
			t.Errorf("%v: FLOPs = %v, want %v", cfg, s.FLOPs, cfg.FLOPs())
		}
		if s.DRAMReadBytes < s.UsefulReadBytes {
			t.Errorf("%v: moved bytes below useful bytes", cfg)
		}
	}
}

func TestConvGemmCostIncludesUnroll(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2} // CONV6
	seq := ConvGemmNCHWCost(d, cfg)
	if len(seq) != 2 {
		t.Fatalf("5x5 convolution must include the im2col kernel, got %d kernels", len(seq))
	}
	onebyone := ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 1, FW: 1}
	if got := ConvGemmNCHWCost(d, onebyone); len(got) != 1 {
		t.Errorf("1x1 stride-1 convolution should skip im2col, got %d kernels", len(got))
	}
}

func TestConvGemmShape(t *testing.T) {
	cfg := ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}
	g := ConvGemmShape(cfg)
	if g.M != 384 || g.K != 256*9 || g.N != 64*11*11 {
		t.Errorf("GEMM shape = %+v", g)
	}
}

// TestPaperLayoutWinners encodes the headline observation of Fig. 3: with
// batch 128 or few channels the CHWN direct convolution wins, with small
// batches and many channels the NCHW GEMM convolution wins.
func TestPaperLayoutWinners(t *testing.T) {
	d := gpusim.TitanBlack()
	cases := []struct {
		name     string
		cfg      ConvConfig
		wantCHWN bool
	}{
		{"CONV1 (LeNet, C=1, N=128)", ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5}, true},
		{"CONV4 (Cifar, C=64, N=128)", ConvConfig{N: 128, C: 64, H: 12, W: 12, K: 64, FH: 5, FW: 5}, true},
		{"CONV5 (ZFNet first, C=3)", ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}, true},
		{"CONV7 (ZFNet, C=256, N=64)", ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}, false},
		{"CONV11 (VGG, C=256, N=32)", ConvConfig{N: 32, C: 256, H: 28, W: 28, K: 512, FH: 3, FW: 3}, false},
	}
	for _, c := range cases {
		chwn := gpusim.EstimateTime(d, ConvDirectCHWNCost(d, c.cfg)).TotalUS
		nchwTotal, _ := gpusim.EstimateSequence(d, ConvGemmNCHWCost(d, c.cfg))
		gotCHWN := chwn < nchwTotal
		if gotCHWN != c.wantCHWN {
			t.Errorf("%s: CHWN=%.0fus NCHW=%.0fus, wanted CHWN faster = %v", c.name, chwn, nchwTotal, c.wantCHWN)
		}
	}
}

func TestConvFFTCostOOMOnLargeFirstLayers(t *testing.T) {
	d := gpusim.TitanBlack()
	// CV5 and CV6 exceed the 6 GB card in the paper's experiments (Fig. 5).
	cv5 := ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}
	cv6 := ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2}
	for _, cfg := range []ConvConfig{cv5, cv6} {
		if _, err := ConvFFTCost(d, cfg); err == nil {
			t.Errorf("%v: expected out-of-memory failure", cfg)
		} else {
			var oom *ErrOutOfMemory
			if !errors.As(err, &oom) {
				t.Errorf("%v: error is not ErrOutOfMemory: %v", cfg, err)
			} else if oom.Error() == "" {
				t.Error("ErrOutOfMemory must describe itself")
			}
		}
	}
	// The tiling mode reduces the workspace and must succeed on the same layers.
	if _, err := ConvFFTTilingCost(d, cv6); err != nil {
		t.Errorf("FFT tiling should fit for CV6: %v", err)
	}
	// Smaller layers must not fail.
	cv7 := ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}
	if _, err := ConvFFTCost(d, cv7); err != nil {
		t.Errorf("CV7 FFT should fit: %v", err)
	}
}

func TestConvFFTCostStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}
	for _, tiled := range []bool{false, true} {
		seq, err := fftCost(d, cfg, tiled)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 3 {
			t.Fatalf("FFT cost should have 3 stages, got %d", len(seq))
		}
		for _, s := range seq {
			if err := s.Validate(); err != nil {
				t.Errorf("tiled=%v: %v", tiled, err)
			}
		}
	}
}

func TestFFTWorkspaceLargerThanTiling(t *testing.T) {
	cfg := ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2}
	if FFTWorkspaceBytes(cfg) <= FFTTilingWorkspaceBytes(cfg) {
		t.Error("full-image FFT workspace should exceed the tiled workspace for 55x55 maps")
	}
}

func BenchmarkConvDirectSmall(b *testing.B) {
	cfg := ConvConfig{N: 8, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5}
	in := tensor.Random(cfg.InputShape(), tensor.CHWN, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvDirect(in, filters, cfg, tensor.CHWN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvGemmSmall(b *testing.B) {
	cfg := ConvConfig{N: 8, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5}
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvIm2colGemm(in, filters, cfg, tensor.NCHW); err != nil {
			b.Fatal(err)
		}
	}
}

// LeNet's two convolutions (workloads.LeNet): conv1 at the inference batch,
// conv2 at the training batch.
var (
	lenetConv1 = ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}
	lenetConv2 = ConvConfig{N: 32, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}
)

// BenchmarkConvDirect runs the LeNet conv1 forward in the images-innermost
// layout (CHWN, the four-image block) and in NCHW (one image per plane).
func BenchmarkConvDirect(b *testing.B) {
	cfg := lenetConv1
	for _, l := range []tensor.Layout{tensor.CHWN, tensor.NCHW} {
		b.Run(l.String(), func(b *testing.B) {
			in := tensor.Random(cfg.InputShape(), l, 1)
			filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
			out := tensor.New(cfg.OutputShape(), l)
			b.SetBytes(int64(cfg.FLOPs())) // MB/s reads as MFLOP/s
			for i := 0; i < b.N; i++ {
				if err := ConvDirectInto(in, filters, out, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvBackwardData runs the LeNet conv2 input gradient in NCHW, the
// training executor's layout.
func BenchmarkConvBackwardData(b *testing.B) {
	cfg := lenetConv2
	dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	dIn := tensor.New(cfg.InputShape(), tensor.NCHW)
	b.SetBytes(int64(cfg.FLOPs()))
	for i := 0; i < b.N; i++ {
		if err := ConvBackwardDataInto(dOut, filters, dIn, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvBackwardFilter runs the LeNet conv2 filter gradient in NCHW.
func BenchmarkConvBackwardFilter(b *testing.B) {
	cfg := lenetConv2
	in := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
	dOut := tensor.Random(cfg.OutputShape(), tensor.NCHW, 2)
	dW := tensor.New(cfg.FilterShape(), tensor.NCHW)
	b.SetBytes(int64(cfg.FLOPs()))
	for i := 0; i < b.N; i++ {
		if err := ConvBackwardFilterInto(in, dOut, dW, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
