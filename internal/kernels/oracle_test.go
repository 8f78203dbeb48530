package kernels

import (
	"math"
	"math/rand"
	"testing"

	"memcnn/internal/tensor"
)

// The oracles below are the plain tensor.At/Set loops the direct kernels
// replace: one output element at a time, every filter tap tested against
// the padding edges, in the accumulation order the production kernels keep
// (forward c→fh→fw, backward-data k→fh→fw, grad-filter n→oh→ow, pooling
// windows y→x, pool backward scattered in oh→ow order).  They share no
// indexing code with the kernels, so bit-equality against them checks the
// stride arithmetic, the tap clipping and the image blocking independently.

func oracleConv(in, filters, out *tensor.Tensor, cfg ConvConfig) {
	cfg = cfg.withDefaults()
	for n := 0; n < cfg.N; n++ {
		for k := 0; k < cfg.K; k++ {
			for oh := 0; oh < cfg.OutH(); oh++ {
				for ow := 0; ow < cfg.OutW(); ow++ {
					var acc float64
					for c := 0; c < cfg.C; c++ {
						for fh := 0; fh < cfg.FH; fh++ {
							ih := oh*cfg.StrideH - cfg.PadH + fh
							if ih < 0 || ih >= cfg.H {
								continue
							}
							for fw := 0; fw < cfg.FW; fw++ {
								iw := ow*cfg.StrideW - cfg.PadW + fw
								if iw < 0 || iw >= cfg.W {
									continue
								}
								acc += float64(in.At(n, c, ih, iw)) * float64(filters.At(k, c, fh, fw))
							}
						}
					}
					out.Set(n, k, oh, ow, float32(acc))
				}
			}
		}
	}
}

func oracleConvBackwardData(dOut, filters, dIn *tensor.Tensor, cfg ConvConfig) {
	cfg = cfg.withDefaults()
	outH, outW := cfg.OutH(), cfg.OutW()
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			for ih := 0; ih < cfg.H; ih++ {
				for iw := 0; iw < cfg.W; iw++ {
					var acc float64
					for k := 0; k < cfg.K; k++ {
						for fh := 0; fh < cfg.FH; fh++ {
							ohNum := ih + cfg.PadH - fh
							if ohNum < 0 || ohNum%cfg.StrideH != 0 {
								continue
							}
							oh := ohNum / cfg.StrideH
							if oh >= outH {
								continue
							}
							for fw := 0; fw < cfg.FW; fw++ {
								owNum := iw + cfg.PadW - fw
								if owNum < 0 || owNum%cfg.StrideW != 0 {
									continue
								}
								ow := owNum / cfg.StrideW
								if ow >= outW {
									continue
								}
								acc += float64(dOut.At(n, k, oh, ow)) * float64(filters.At(k, c, fh, fw))
							}
						}
					}
					dIn.Set(n, c, ih, iw, float32(acc))
				}
			}
		}
	}
}

func oracleConvBackwardFilter(in, dOut, dW *tensor.Tensor, cfg ConvConfig) {
	cfg = cfg.withDefaults()
	outH, outW := cfg.OutH(), cfg.OutW()
	for k := 0; k < cfg.K; k++ {
		for c := 0; c < cfg.C; c++ {
			for fh := 0; fh < cfg.FH; fh++ {
				for fw := 0; fw < cfg.FW; fw++ {
					var acc float64
					for n := 0; n < cfg.N; n++ {
						for oh := 0; oh < outH; oh++ {
							ih := oh*cfg.StrideH - cfg.PadH + fh
							if ih < 0 || ih >= cfg.H {
								continue
							}
							for ow := 0; ow < outW; ow++ {
								iw := ow*cfg.StrideW - cfg.PadW + fw
								if iw < 0 || iw >= cfg.W {
									continue
								}
								acc += float64(dOut.At(n, k, oh, ow)) * float64(in.At(n, c, ih, iw))
							}
						}
					}
					dW.Set(k, c, fh, fw, float32(acc))
				}
			}
		}
	}
}

// poolWindow reduces the window of output (oh, ow) of image n, channel c.
func poolWindow(in *tensor.Tensor, cfg PoolConfig, n, c, oh, ow int) float32 {
	h0, w0 := oh*cfg.Stride, ow*cfg.Stride
	switch cfg.Op {
	case MaxPool:
		best := in.At(n, c, h0, w0)
		for y := 0; y < cfg.Window; y++ {
			for x := 0; x < cfg.Window; x++ {
				if v := in.At(n, c, h0+y, w0+x); v > best {
					best = v
				}
			}
		}
		return best
	default: // AvgPool
		var sum float64
		for y := 0; y < cfg.Window; y++ {
			for x := 0; x < cfg.Window; x++ {
				sum += float64(in.At(n, c, h0+y, w0+x))
			}
		}
		return float32(sum / float64(cfg.Window*cfg.Window))
	}
}

func oraclePool(in, out *tensor.Tensor, cfg PoolConfig) {
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			for oh := 0; oh < cfg.OutH(); oh++ {
				for ow := 0; ow < cfg.OutW(); ow++ {
					out.Set(n, c, oh, ow, poolWindow(in, cfg, n, c, oh, ow))
				}
			}
		}
	}
}

func oraclePoolBackward(in, dOut, dIn *tensor.Tensor, cfg PoolConfig) {
	dIn.Fill(0)
	for n := 0; n < cfg.N; n++ {
		for c := 0; c < cfg.C; c++ {
			for oh := 0; oh < cfg.OutH(); oh++ {
				for ow := 0; ow < cfg.OutW(); ow++ {
					g := dOut.At(n, c, oh, ow)
					h0, w0 := oh*cfg.Stride, ow*cfg.Stride
					if cfg.Op == AvgPool {
						share := g / float32(cfg.Window*cfg.Window)
						for y := 0; y < cfg.Window; y++ {
							for x := 0; x < cfg.Window; x++ {
								dIn.Set(n, c, h0+y, w0+x, dIn.At(n, c, h0+y, w0+x)+share)
							}
						}
						continue
					}
					bestY, bestX := 0, 0
					best := in.At(n, c, h0, w0)
					for y := 0; y < cfg.Window; y++ {
						for x := 0; x < cfg.Window; x++ {
							if v := in.At(n, c, h0+y, w0+x); v > best {
								best, bestY, bestX = v, y, x
							}
						}
					}
					dIn.Set(n, c, h0+bestY, w0+bestX, dIn.At(n, c, h0+bestY, w0+bestX)+g)
				}
			}
		}
	}
}

// oracleConfigs draws seeded conv layers: stride 1-3, padding below the
// filter size, and N from 1 to 5 so the CHWN kernel's four-image block and
// its remainder both run.
func oracleConfigs(rng *rand.Rand, count int) []ConvConfig {
	var cfgs []ConvConfig
	for len(cfgs) < count {
		cfg := ConvConfig{
			N: 1 + rng.Intn(5), C: 1 + rng.Intn(3), K: 1 + rng.Intn(3),
			H: 1 + rng.Intn(9), W: 1 + rng.Intn(9),
			FH: 1 + rng.Intn(5), FW: 1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
		}
		cfg.PadH, cfg.PadW = rng.Intn(cfg.FH), rng.Intn(cfg.FW)
		if cfg.Validate() == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func oraclePoolConfigs(rng *rand.Rand, count int) []PoolConfig {
	var cfgs []PoolConfig
	for len(cfgs) < count {
		cfg := PoolConfig{
			N: 1 + rng.Intn(5), C: 1 + rng.Intn(3),
			H: 1 + rng.Intn(10), W: 1 + rng.Intn(10),
			Window: 1 + rng.Intn(4), Stride: 1 + rng.Intn(3),
			Op: PoolOp(rng.Intn(2)),
		}
		if cfg.Validate() == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// layoutPairs lists all 16 (input, output) layout combinations.
func layoutPairs() [][2]tensor.Layout {
	var pairs [][2]tensor.Layout
	for _, a := range tensor.Layouts {
		for _, b := range tensor.Layouts {
			pairs = append(pairs, [2]tensor.Layout{a, b})
		}
	}
	return pairs
}

// randomIn returns a seeded tensor with a sprinkling of exact ties and
// negative values, so the max-pool tie rule and sign handling are exercised.
func randomIn(shape tensor.Shape, l tensor.Layout, rng *rand.Rand) *tensor.Tensor {
	t := tensor.New(shape, l)
	for i := range t.Data {
		if rng.Intn(6) == 0 {
			t.Data[i] = 0.5
			continue
		}
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// poisoned returns a destination tensor filled with NaN, so an element the
// kernel fails to write shows up as a mismatch.
func poisoned(shape tensor.Shape, l tensor.Layout) *tensor.Tensor {
	t := tensor.New(shape, l)
	t.Fill(float32(math.NaN()))
	return t
}

// sameBits reports the first logical coordinate where two tensors (in any
// layouts) differ bit for bit.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	s := want.Shape
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					g, x := got.At(n, c, h, w), want.At(n, c, h, w)
					if math.Float32bits(g) != math.Float32bits(x) {
						t.Fatalf("%s: (%d,%d,%d,%d) = %v, oracle %v", what, n, c, h, w, g, x)
					}
				}
			}
		}
	}
}

// TestConvKernelsMatchOracle requires the forward, backward-data and
// grad-filter kernels to be bit-equal to the At/Set oracles on seeded random
// layers, for all 16 input/output layout pairs and random filter and
// gradient layouts.
func TestConvKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cfg := range oracleConfigs(rng, 60) {
		cfg = cfg.withDefaults()
		for _, pair := range layoutPairs() {
			inL, outL := pair[0], pair[1]
			fL := tensor.Layouts[rng.Intn(len(tensor.Layouts))]
			in := randomIn(cfg.InputShape(), inL, rng)
			filters := randomIn(cfg.FilterShape(), fL, rng)
			dOut := randomIn(cfg.OutputShape(), outL, rng)
			name := cfg.String() + " " + inL.String() + "→" + outL.String() + " filters " + fL.String()

			out := poisoned(cfg.OutputShape(), outL)
			if err := ConvDirectInto(in, filters, out, cfg); err != nil {
				t.Fatal(err)
			}
			want := tensor.New(cfg.OutputShape(), tensor.NCHW)
			oracleConv(in, filters, want, cfg)
			sameBits(t, "forward "+name, out, want)

			dIn := poisoned(cfg.InputShape(), inL)
			if err := ConvBackwardDataInto(dOut, filters, dIn, cfg); err != nil {
				t.Fatal(err)
			}
			wantDIn := tensor.New(cfg.InputShape(), tensor.NCHW)
			oracleConvBackwardData(dOut, filters, wantDIn, cfg)
			sameBits(t, "backward-data "+name, dIn, wantDIn)

			dW := poisoned(cfg.FilterShape(), fL)
			if err := ConvBackwardFilterInto(in, dOut, dW, cfg); err != nil {
				t.Fatal(err)
			}
			wantDW := tensor.New(cfg.FilterShape(), tensor.NCHW)
			oracleConvBackwardFilter(in, dOut, wantDW, cfg)
			sameBits(t, "grad-filter "+name, dW, wantDW)
		}
	}
}

// TestPoolKernelsMatchOracle does the same for max and average pooling,
// forward and backward.
func TestPoolKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cfg := range oraclePoolConfigs(rng, 60) {
		for _, pair := range layoutPairs() {
			inL, outL := pair[0], pair[1]
			in := randomIn(cfg.InputShape(), inL, rng)
			dOut := randomIn(cfg.OutputShape(), outL, rng)
			name := cfg.String() + " " + inL.String() + "→" + outL.String()

			out := poisoned(cfg.OutputShape(), outL)
			if err := PoolInto(in, out, cfg); err != nil {
				t.Fatal(err)
			}
			want := tensor.New(cfg.OutputShape(), tensor.NCHW)
			oraclePool(in, want, cfg)
			sameBits(t, "pool "+name, out, want)

			dIn := poisoned(cfg.InputShape(), inL)
			if err := PoolBackwardInto(in, dOut, dIn, cfg); err != nil {
				t.Fatal(err)
			}
			wantDIn := tensor.New(cfg.InputShape(), tensor.NCHW)
			oraclePoolBackward(in, dOut, wantDIn, cfg)
			sameBits(t, "pool backward "+name, dIn, wantDIn)
		}
	}
}
