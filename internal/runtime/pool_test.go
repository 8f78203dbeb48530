package runtime_test

import (
	goruntime "runtime"
	"testing"

	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestPoolSurvivesGC pins the instance pool's contract: a garbage collection
// does not drop idle arenas, so a warm executor's run right after a GC
// allocates nothing.  A pool that a GC can empty would allocate a fresh
// arena here.  GOMAXPROCS is pinned to 1 so the kernels take their
// allocation-free serial path.
func TestPoolSurvivesGC(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := runtime.CompileFixed(net, tensor.CHWN)
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.NewExecutor(prog)
	in := tensor.Random(prog.InputShape(), tensor.CHWN, 1)
	dst := tensor.New(prog.OutputShape(), tensor.CHWN)

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	if err := exec.RunInto(in, dst); err != nil { // fill the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		goruntime.GC()
		if err := exec.RunInto(in, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a run after GC allocates %.1f objects, want 0", allocs)
	}
}
