package main

import "time"

// Host calibration: a fixed multiply-add loop and a streaming copy, sharing
// no code with internal/.  They describe the machine a run happened on and
// are reported as host.* context only; no other metric is divided by them,
// because a normaliser that runs the code under test cancels the very
// regression it should expose.

// hostSink keeps the calibration results live so the loops are not removed.
var hostSink float32

// hostGFLOPS times a register-resident multiply-add chain: eight
// independent accumulators over a 256-element L1-resident vector, 2 FLOPs per
// element per pass.  It reports the best of five trials.
func hostGFLOPS() float64 {
	const n, passes = 256, 4000
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(i%7) * 0.125
	}
	best := 0.0
	for trial := 0; trial < 5; trial++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for i := 0; i < n; i += 8 {
				a0 = a0*0.999 + x[i]
				a1 = a1*0.999 + x[i+1]
				a2 = a2*0.999 + x[i+2]
				a3 = a3*0.999 + x[i+3]
				a4 = a4*0.999 + x[i+4]
				a5 = a5*0.999 + x[i+5]
				a6 = a6*0.999 + x[i+6]
				a7 = a7*0.999 + x[i+7]
			}
		}
		el := time.Since(t0).Seconds()
		hostSink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		if g := 2 * float64(n*passes) / el / 1e9; g > best {
			best = g
		}
	}
	return best
}

// hostCopyGBPS times the builtin copy between two 32 MiB buffers, far larger
// than any cache, counting bytes read plus bytes written.  Best of five.
func hostCopyGBPS() float64 {
	const elems = 8 << 20
	src := make([]float32, elems)
	dst := make([]float32, elems)
	for i := range src {
		src[i] = float32(i)
	}
	best := 0.0
	for trial := 0; trial < 5; trial++ {
		t0 := time.Now()
		copy(dst, src)
		el := time.Since(t0).Seconds()
		if g := 2 * 4 * float64(elems) / el / 1e9; g > best {
			best = g
		}
	}
	hostSink += dst[elems-1]
	return best
}
