package main

import (
	"math/rand"
	"testing"
	"time"

	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestOpenLoopChecksEveryResponse drives a BatchServer from the open-loop
// generator, traced, so concurrent requests reach the recorder and the
// per-request result slots at once (run with -race), and checks that a
// wrong golden row is counted as a failure.
func TestOpenLoopChecksEveryResponse(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	prog, err := compile(rec, net, &setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := runtime.NewServer(prog, runtime.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := prog.InputShape()
	r := rand.New(rand.NewSource(1))
	pool := make([]*tensor.Tensor, 6) // not a multiple of the batch of 4
	for i := range pool {
		pool[i] = randomTensor(r, tensor.Shape{N: 1, C: s.C, H: s.H, W: s.W}, 1)
	}
	golden, err := goldenRows(prog, pool)
	if err != nil {
		t.Fatal(err)
	}

	sched := poissonSchedule(1, 2000, 100*time.Millisecond, len(pool))
	p := openLoop(srv, sched, pool, golden, rec)
	if p.Calls != len(sched) || p.Failed != 0 || p.Requests != len(sched) {
		t.Fatalf("calls %d failed %d requests %d, want %d, 0, %d", p.Calls, p.Failed, p.Requests, len(sched), len(sched))
	}
	if p.Batches == 0 || p.Batches > p.Requests {
		t.Fatalf("%d batches for %d requests", p.Batches, p.Requests)
	}
	requests := 0
	for _, sp := range rec.during(p.phase) {
		if sp.Kind == spanRequest {
			requests++
		}
	}
	if requests != len(sched) {
		t.Fatalf("%d request spans, want %d", requests, len(sched))
	}

	wrong := append([][]float32(nil), golden...)
	wrong[0] = append([]float32(nil), golden[0]...)
	wrong[0][0]++
	want := 0
	for _, a := range sched {
		if a.Img == 0 {
			want++
		}
	}
	if p := openLoop(srv, sched, pool, wrong, nil); p.Failed != want {
		t.Fatalf("%d failures with image 0's golden row corrupted, want %d", p.Failed, want)
	}
}
