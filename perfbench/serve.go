package main

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"

	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

const (
	serveBatch = 32
	// serveRate is the fixed offered load, in requests (images) per second.
	serveRate = 120
	// servePool distinct seeded images make up the traffic.
	servePool = 128
	// A serving set-up's first batch runs on two cores and spreads more
	// than the one-core set-ups; fifteen keep its median steady.
	serveSetups = 15
)

// runServe is the serving workload: LeNet@32 behind a BatchServer with the
// default configuration, fed open-loop Poisson arrivals by one generator.
// Each request is timed from when it was due, so generator stalls count
// against latency; every response must be bit-equal to its image's row of
// Program.ReferenceForward.
func runServe(e env) (*outcome, error) {
	build := lenet(serveBatch)
	probe, err := build()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(e.Seed))
	s := probe.InputShape()
	pool := make([]*tensor.Tensor, servePool)
	for i := range pool {
		pool[i] = randomTensor(r, tensor.Shape{N: 1, C: s.C, H: s.H, W: s.W}, lenetInputScale)
	}
	var rec *recorder
	if e.Trace {
		rec = newRecorder()
	}
	ctx := context.Background()

	var prog *runtime.Program
	var srv *runtime.BatchServer
	times := make([]setupTimes, serveSetups)
	for i := range times {
		if srv != nil {
			srv.Close()
		}
		prog, srv = nil, nil
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
		if srv, err = runtime.NewServer(prog, runtime.ServerConfig{}); err != nil {
			return nil, err
		}
		st.First = rec.step("first Infer", func() error { _, err = srv.Infer(ctx, pool[0]); return err })
		if err != nil {
			return nil, fmt.Errorf("first request: %w", err)
		}
		st.Total = time.Since(t0)
		times[i] = st
	}
	defer srv.Close()
	if rec != nil {
		rec.step("PlanMemory", func() error { _, err = runtime.PlanMemory(prog); return err })
		if err != nil {
			return nil, err
		}
	}
	golden, err := goldenRows(prog, pool)
	if err != nil {
		return nil, err
	}

	dur := e.Dur
	if e.Trace {
		dur /= 2
	}
	ph := openLoop(srv, poissonSchedule(e.Seed, serveRate, dur, servePool), pool, golden, nil)
	res := &outcome{Attempted: ph.Calls, Failed: ph.Failed, Metrics: map[string]float64{}}
	m := res.Metrics
	setupMetrics(m, times)
	memMetrics(m, prog)
	fmt.Printf("# serve: %d requests, %d batches, generator up to %.3f ms late\n", ph.Calls, ph.Batches, ph.LateMax)
	if !e.Trace {
		endToEndMetrics(m, ph.phase, 1, res)
		return res, nil
	}

	// Traced run: a second server over the same program whose runner times
	// each batch and whose device times each op, fed a second schedule.
	texec := runtime.NewExecutorOn(prog, newTimingDevice(rec, prog))
	tsrv, err := runtime.NewServerWith(prog, &timingRunner{rec: rec, exec: texec}, runtime.ServerConfig{})
	if err != nil {
		return nil, err
	}
	defer tsrv.Close()
	if _, err := tsrv.Infer(ctx, pool[0]); err != nil {
		return nil, err
	}
	tph := openLoop(tsrv, poissonSchedule(e.Seed+1, serveRate, dur, servePool), pool, golden, rec)
	res.Attempted += tph.Calls
	res.Failed += tph.Failed
	bd := rec.report(tph.phase, prog)
	bd.layerMetrics(m)

	cfg := tsrv.Config()
	var busy float64
	for _, v := range bd.RunSample {
		busy += v
	}
	m["serve.batches"] = float64(tph.Batches)
	m["serve.fill_ratio"] = fillRatio(uint64(tph.Requests), uint64(tph.Batches), cfg.MaxBatch)
	m["serve.batch_ms_p50"] = medianOf(bd.RunSample)
	m["serve.busy_share"] = busy / (float64(cfg.Workers) * msOf(tph.Wall))
	m["serve.queue_ms_mean"] = summarize(tph.Lat).Mean - bd.RunMS
	m["serve.gen_late_ms_max"] = tph.LateMax
	traceMetrics(m, ph.phase, tph.phase, ph.Batches)
	return res, nil
}

// goldenRows runs the pool through Program.ReferenceForward, a full batch
// at a time, and returns each image's output row.
func goldenRows(prog *runtime.Program, pool []*tensor.Tensor) ([][]float32, error) {
	in := tensor.New(prog.InputShape(), tensor.NCHW)
	batch := in.Shape.N
	chw := len(pool[0].Data)
	rows := make([][]float32, len(pool))
	for base := 0; base < len(pool); base += batch {
		clear(in.Data)
		n := min(batch, len(pool)-base)
		for i := 0; i < n; i++ {
			copy(in.Data[i*chw:], pool[base+i].Data)
		}
		out, err := prog.ReferenceForward(in)
		if err == nil {
			out, err = toNCHW(out)
		}
		if err != nil {
			return nil, fmt.Errorf("reference forward: %w", err)
		}
		per := len(out.Data) / batch
		for i := 0; i < n; i++ {
			rows[base+i] = out.Data[i*per : (i+1)*per]
		}
	}
	return rows, nil
}

// servePhase is one open-loop phase.
type servePhase struct {
	phase
	Requests, Batches int // what the server executed during the phase
	LateMax           float64
}

// openLoop sends each scheduled request when it is due, whether or not
// earlier ones have returned, then waits for all of them.  Each request runs
// on its own goroutine, so the number in flight is what the server's queue
// holds.
func openLoop(srv *runtime.BatchServer, sched []arrival, pool []*tensor.Tensor, golden [][]float32, rec *recorder) servePhase {
	var p servePhase
	n := len(sched)
	p.Lat = make([]float64, n)
	doneAt := make([]time.Duration, n)
	bad := make([]bool, n)
	before := srv.Stats()
	goruntime.GC() // collect set-up garbage; see closedLoop
	h := newHeapMeter()
	o0, b0 := h.start()
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	p.Begin = start
	for i, a := range sched {
		due := start.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := msOf(time.Since(due)); late > p.LateMax {
			p.LateMax = late
		}
		h.sample()
		wg.Add(1)
		go func(i int, img int, due time.Time) {
			defer wg.Done()
			var out *tensor.Tensor
			err := rec.timed("BatchServer.Infer", spanRequest, func() (err error) {
				out, err = srv.Infer(ctx, pool[img])
				return err
			})
			end := time.Now()
			p.Lat[i] = msOf(end.Sub(due))
			doneAt[i] = end.Sub(start)
			bad[i] = err != nil || !bitEqual(out.Data, golden[img])
		}(i, a.Img, due)
	}
	wg.Wait()
	h.end(&p.phase, o0, b0)
	after := srv.Stats()
	p.Calls = n
	for i := range sched {
		if bad[i] {
			p.Failed++
		}
		if doneAt[i] > p.Wall {
			p.Wall = doneAt[i]
		}
	}
	p.Requests = int(after.Requests - before.Requests)
	p.Batches = int(after.Batches - before.Batches)
	return p
}
