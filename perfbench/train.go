package main

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"time"

	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/tensor"
)

const (
	trainBatch = 32
	// trainBatches distinct seeded batches are stepped through in turn.
	trainBatches = 4
	trainSetups  = 5
	// trainChecked leading steps are replayed on the naive executor: each
	// replayed step costs as much as a timed one, so checking every step
	// would halve the timed phase.
	trainChecked = 3
)

// runTrain is the training workload: LeNet@32 compiled with the
// CompileTraining defaults, stepped back to back on seeded batches.  Losses
// must be bit-equal to train.NewNaiveExecutor's on the same batches.
func runTrain(e env) (*outcome, error) {
	build := lenet(trainBatch)
	probe, err := build()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.Seed))
	images := make([]*tensor.Tensor, trainBatches)
	labels := make([][]int, trainBatches)
	for b := range images {
		images[b] = randomTensor(r, probe.InputShape(), lenetInputScale)
		labels[b] = make([]int, trainBatch)
		for i := range labels[b] {
			labels[b][i] = r.Intn(probe.OutputShape().C)
		}
	}
	var rec *recorder
	if e.Trace {
		rec = newRecorder()
	}

	// losses[j] is the loss of the j-th step the kept executor took, the
	// set-up's first step included.
	var losses []float64
	stepOn := func(ex *train.Executor) error {
		b := len(losses) % trainBatches
		st, err := ex.Step(images[b], labels[b])
		losses = append(losses, st.Loss)
		return err
	}

	var tp *train.Program
	var exec *train.Executor
	times := make([]setupTimes, trainSetups)
	for i := range times {
		tp, exec, losses = nil, nil, nil
		goruntime.GC()
		var st setupTimes
		t0 := time.Now()
		net, err := build()
		if err != nil {
			return nil, err
		}
		// Training runs in NCHW throughout; there is no layout plan.
		st.Plan = time.Since(t0)
		st.Compile = rec.step("CompileTraining", func() error {
			tp, err = train.CompileTraining(net, train.Options{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("compile training: %w", err)
		}
		if exec, err = train.NewExecutor(tp); err != nil {
			return nil, err
		}
		st.First = rec.step("first Step", func() error { err = stepOn(exec); return err })
		if err != nil {
			return nil, fmt.Errorf("first step: %w", err)
		}
		st.Total = time.Since(t0)
		times[i] = st
	}
	if rec != nil {
		rec.step("PlanMemory", func() error { _, err = runtime.PlanMemory(tp.Program); return err })
		if err != nil {
			return nil, err
		}
	}

	dur := e.Dur
	if e.Trace {
		dur /= 2
	}
	always := func() bool { return true }
	ph := closedLoop(dur, func() error { return stepOn(exec) }, always)
	res := &outcome{Attempted: ph.Calls, Failed: ph.Failed, Metrics: map[string]float64{}}
	m := res.Metrics
	setupMetrics(m, times)
	memMetrics(m, tp.Program)

	var tph phase
	if e.Trace {
		texec, err := train.NewExecutorOn(tp, newTimingDevice(rec, tp.Program))
		if err != nil {
			return nil, err
		}
		tph = closedLoop(dur, func() error {
			return rec.timed("Step", spanRun, func() error { return stepOn(texec) })
		}, always)
		res.Attempted += tph.Calls
		res.Failed += tph.Failed
		rec.report(tph, tp.Program).layerMetrics(m)
	}

	bad, err := checkLosses(build, images, labels, losses)
	if err != nil {
		return nil, err
	}
	res.Failed += bad

	if e.Trace {
		traceMetrics(m, ph, tph, len(ph.Lat))
	} else {
		endToEndMetrics(m, ph, trainBatch, res)
	}
	return res, nil
}

// checkLosses replays the leading steps on the naive executor of a fresh,
// identically initialised network and counts losses that differ in any bit.
func checkLosses(build func() (*network.Network, error), images []*tensor.Tensor, labels [][]int, losses []float64) (int, error) {
	net, err := build()
	if err != nil {
		return 0, err
	}
	tp, err := train.CompileTraining(net, train.Options{})
	if err != nil {
		return 0, err
	}
	naive, err := train.NewNaiveExecutor(tp, runtime.CPUDevice{})
	if err != nil {
		return 0, err
	}
	bad := 0
	n := min(trainChecked, len(losses))
	for j := 0; j < n; j++ {
		b := j % trainBatches
		st, err := naive.Step(images[b], labels[b])
		if err != nil {
			return 0, fmt.Errorf("naive step %d: %w", j, err)
		}
		if math.Float64bits(st.Loss) != math.Float64bits(losses[j]) {
			fmt.Printf("# step %d: loss %v, naive executor %v\n", j, losses[j], st.Loss)
			bad++
		}
	}
	fmt.Printf("# training: %d steps, first %d replayed on the naive executor, %d differ\n", len(losses), n, bad)
	return bad, nil
}
