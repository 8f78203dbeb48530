package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// runInfer is an offline workload: one caller in a closed loop running
// Executor.RunInto back to back on one seeded batch.  Each output must be
// bit-equal to Program.ReferenceForward on the same input.
func runInfer(e env, build func() (*network.Network, error), scale float32, setups int) (*outcome, error) {
	probe, err := build()
	if err != nil {
		return nil, err
	}
	in := randomTensor(rand.New(rand.NewSource(e.Seed)), probe.InputShape(), scale)
	var rec *recorder
	if e.Trace {
		rec = newRecorder()
	}

	var prog *runtime.Program
	var exec *runtime.Executor
	times := make([]setupTimes, setups)
	for i := range times {
		prog, exec = nil, nil // let the previous set-up be collected first
		goruntime.GC()
		var st setupTimes
		t0 := time.Now()
		net, err := build()
		if err != nil {
			return nil, err
		}
		st.Plan = time.Since(t0)
		if prog, err = compile(rec, net, &st); err != nil {
			return nil, err
		}
		exec = runtime.NewExecutor(prog)
		out := tensor.New(prog.OutputShape(), tensor.NCHW)
		st.First = rec.step("first RunInto", func() error { err = exec.RunInto(in, out); return err })
		if err != nil {
			return nil, fmt.Errorf("first run: %w", err)
		}
		st.Total = time.Since(t0)
		times[i] = st
	}
	if rec != nil {
		rec.step("PlanMemory", func() error { _, err = runtime.PlanMemory(prog); return err })
		if err != nil {
			return nil, err
		}
	}

	ref, err := prog.ReferenceForward(in)
	if err == nil {
		ref, err = toNCHW(ref)
	}
	if err != nil {
		return nil, fmt.Errorf("reference forward: %w", err)
	}
	out := tensor.New(prog.OutputShape(), tensor.NCHW)
	ok := func() bool { return bitEqual(out.Data, ref.Data) }

	dur := e.Dur
	if e.Trace {
		dur /= 2
	}
	ph := closedLoop(dur, func() error { return exec.RunInto(in, out) }, ok)

	m := map[string]float64{}
	setupMetrics(m, times)
	memMetrics(m, prog)
	res := &outcome{Attempted: ph.Calls, Failed: ph.Failed, Metrics: m}
	if !e.Trace {
		endToEndMetrics(m, ph, in.Shape.N, res)
		return res, nil
	}

	// Traced run: the same program on an executor whose device records
	// every op.
	texec := runtime.NewExecutorOn(prog, newTimingDevice(rec, prog))
	tph := closedLoop(dur, func() error {
		return rec.timed("RunInto", spanRun, func() error { return texec.RunInto(in, out) })
	}, ok)
	res.Attempted += tph.Calls
	res.Failed += tph.Failed
	rec.report(tph, prog).layerMetrics(m)
	traceMetrics(m, ph, tph, len(ph.Lat))
	return res, nil
}
