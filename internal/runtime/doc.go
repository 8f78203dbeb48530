// Package runtime executes networks under the memory discipline the paper
// plans for: a network.ExecutionPlan is compiled into a flat program of ops
// with explicit buffer IDs, the buffers are packed into a single arena by a
// liveness-driven static memory plan, and the program is run by an executor
// that performs no tensor allocation in steady state.
//
// The pipeline has three stages:
//
//	compile (graph.go)    — lower the layer stack into an op list: one op per
//	                        layer, plus the plan's layout-transform ops and
//	                        zero-copy reshape views at flattening boundaries.
//	                        With Options.ConvAlgorithms each convolution op
//	                        additionally records its execution strategy —
//	                        direct, im2col+GEMM or FFT.  internal/autotune
//	                        picks a base algorithm per layer shape (the
//	                        merged-matrix heuristic plus a large-filter
//	                        stride-1 FFT regime, or a measured probe of all
//	                        three kernels), and the compiler re-prices that
//	                        choice jointly with the layer's layout through
//	                        internal/layout (layout.JointConvChoice): the FFT
//	                        kernels live in NCHW, so promoting a layer to the
//	                        frequency domain charges the layout switch and
//	                        may flip the planner's layout together with the
//	                        algorithm — the paper's joint layout+algorithm
//	                        decision, shared verbatim with cmd/layoutplan
//	                        -algs.  The filter bank is pre-packed once into
//	                        the flat GEMM operand, and every kernel workspace
//	                        (GEMM unroll matrix, FFT spectrum planes,
//	                        fully-connected flatten staging, softmax logits)
//	                        becomes an op-local scratch buffer.
//	                        Layers declaring in-place safety
//	                        (layers.InPlaceForwarder, e.g. ReLU) alias their
//	                        output buffer onto their input, so the op reads
//	                        and writes the same arena storage.
//	memory plan (memplan.go) — liveness analysis over buffer IDs followed by
//	                        greedy best-fit offset assignment into one arena;
//	                        scratch buffers are live only during their op, so
//	                        the packer overlays them with activation storage,
//	                        and alias live ranges merge into their root's.
//	                        The plan reports its peak footprint against the
//	                        naive all-buffers-live total, making the paper's
//	                        memory-efficiency story measurable.
//	execute (executor.go, pool.go, device.go) — run the compiled program on
//	                        arena-backed tensor views recycled through a
//	                        free list that a GC cannot empty (so the arena
//	                        count equals peak concurrency), using the
//	                        recorded convolution algorithm,
//	                        layers.WorkspaceForwarder/IntoForwarder
//	                        where available, and falling back to Forward plus
//	                        a copy elsewhere.  Steady-state runs allocate no
//	                        tensors or scratch slices.  Every op dispatches
//	                        through a Device: CPUDevice is the native path,
//	                        SimDevice computes the same results while pricing
//	                        each op on an internal/gpusim hardware model, so
//	                        runs report modeled device latency.
//
// On top of the single-device executor, shard.go cuts a compiled program into
// contiguous pipeline stages (the lowered op list is a linear chain, so every
// op boundary is a valid cut): the partitioner balances per-stage modeled
// FLOPs or defined bytes, the buffer crossing each cut becomes an explicit
// cross-device transfer, and every stage is compiled into a self-contained
// sub-program with its own arena plan.  pipeline.go streams batches through
// the stages — one goroutine per stage, per-stage arena pools, pooled
// boundary tensors — with results bit-identical to the unsharded executor.
//
// The complementary execution axis is data parallelism: the replica
// sub-package clones a compiled program across N devices (shared read-only
// weights via layers.Rebatcher and network.WithBatch, one arena pool per
// replica) and splits every batch into per-replica sub-batches weighted by
// modeled or probed device throughput, running them concurrently and
// reassembling bit-identically.  CompileLike supports it by lowering a
// rebatched network against the base program's per-layer layouts and
// convolution algorithms instead of re-selecting by the sub-batch shape.
// Replicas may themselves be pipeline-sharded, composing both axes; the
// modeled cost of the batch scatter divides the interconnect bandwidth among
// the simultaneous transfers (gpusim.Interconnect).
//
// Golden bit-equality holds per algorithm: direct-only programs reproduce the
// naive Network.Forward exactly, while algorithm-selected programs reproduce
// Program.ReferenceForward (the functional forward mirroring the recorded
// per-layer choices); every kernel fixes its accumulation order so results do
// not depend on layout, batching or worker count.  CompileFixedAlg pins every
// convolution to one algorithm, which is how the golden suite holds each of
// the three production paths against the reference on every workload network.
//
// On top of any engine, server.go provides a dynamic micro-batching
// front-end: many concurrent single-image requests coalesce into planned
// batched executions (bounded by a maximum batch size and a maximum queueing
// delay) running on any Runner — the single-device Executor, the sharded
// PipelineExecutor or the data-parallel replica.Group, whose engines the
// server's concurrent workers keep filled.  With ServerConfig.CacheEntries a
// checksum-keyed result cache (cache.go: bounded LRU, hit/miss/eviction
// counters, single-flight on concurrent identical inputs) sits in front of
// the batching queue, so repeated inputs skip execution entirely.  That is
// how the planned engine serves traffic — see cmd/memcnnserve.
//
// # Failure model
//
// The serving path assumes fail-stop devices with three observable failure
// modes, all injectable deterministically by FaultDevice (fault.go) for
// reproducible chaos tests: transient op errors (ErrFaultInjected — the op
// did not run, a retry may succeed), latency stalls (the op runs late — the
// failure mode deadlines exist for), and permanent death (ErrDeviceDead —
// every later op fails, retries against the same device are pointless).  A
// fourth mode, panics inside a kernel or the executor, is contained by
// recover into a *PanicError (health.go) so a poisoned op crashes a request,
// never the process.
//
// # Health state machine
//
// replica.Group tracks each replica as Healthy or Unhealthy.  A failed
// sub-batch retries on its own replica up to Config.MaxRetries times with
// capped exponential backoff (Backoff); if the replica still fails — or its
// error is ErrDeviceDead — it is marked Unhealthy, the failover counter
// increments exactly once (CAS), and the whole batch re-runs over the
// survivors: batch shares are re-derived from the healthy units' original
// throughput weights, so the degraded group's outputs stay bit-identical to
// the full-fleet run (every kernel fixes its accumulation order and rows are
// image-independent).  A background probe (Config.ProbeInterval) runs a
// one-image batch against each Unhealthy replica and re-admits it on
// success, re-deriving shares again.  Cancellation is not failure: a
// sub-batch that dies of its own request's context.Context never marks a
// replica Unhealthy.
//
// # Deadlines and shedding
//
// context.Context flows through the whole Runner path (RunIntoCtx on
// Executor, PipelineExecutor and replica.Group).  The batching server stamps
// each request with a ServerConfig.SLO deadline, drops already-expired
// requests when coalescing a batch (the Expired counter; the batch runs
// under the latest surviving deadline), and sheds at admission with ErrShed
// — before the request ever queues — when the estimated queue wait
// (p95 batch time x queued batches / workers, read from the server's
// always-on batch-latency histogram) already exceeds the SLO, so an
// overloaded server fails fast instead of queueing doomed work.  Shed or
// expired requests never enter the result cache; only successful batches
// feed the histogram.  Counters for all of this (Shed, Expired, and the
// group's retries/failovers/readmissions/contained panics via
// ServerStats.Faults) surface in cmd/memcnnserve's /healthz endpoint and
// `netbench -chaos`.
//
// # Observability
//
// observe.go ties the stack into internal/obs.  An Observer bundles an
// optional trace recorder and an optional metrics registry; Instrument
// methods on Executor, PipelineExecutor, replica.Group and BatchServer
// attach one shared Observer before traffic starts, and the hooks are
// allocation-free — a span is a prebuilt template copied into the ring, a
// metric observation is an atomic increment — with a nil-check-only fast
// path when nothing is attached.
//
// The span taxonomy mirrors the execution layers, one trace lane per
// concurrent actor so the export reads correctly in chrome://tracing or
// Perfetto: "op" (one compiled op, carrying its kind, buffer layout, conv
// algorithm and modeled device time), "run" (one whole program execution),
// "stage" (one batch crossing one pipeline stage, on per-stage lanes),
// "replica" (one sub-batch on one replica, whose engines nest their own
// run/op spans on the replica's lanes), and the server-side "queue",
// "coalesce" and "batch" spans on per-worker lanes.  The metrics side
// registers latency histograms per net/op-kind/stage/replica plus every
// ServerStats counter as a function reading the same atomics Stats reads,
// so /metrics can never disagree with /stats.  When the device chain prices
// ops on a SimDevice, per-layer measured and modeled microsecond totals
// accumulate as counters and DriftReport extracts the modeled-vs-measured
// drift ratio per layer — the live check that the gpusim cost model keeps
// tracking reality.  cmd/memcnnserve surfaces all of it over HTTP
// (/metrics, /trace, expanded /stats, opt-in pprof) and `netbench -trace`
// writes the same Chrome trace JSON for offline runs.
//
// The train sub-package extends the same discipline to training.
// CompileTraining appends loss and backward ops to the lowered forward
// program — OpLossGrad (fused softmax cross-entropy gradient), OpBackward
// (data gradients via layers.BackwardLayer), OpGradFilter and OpSGD (for
// layers.TrainableLayer), and OpRecompute for checkpointed activations — and
// the memory plan covers the joint forward+backward graph: an activation
// needed by a backward op stays live until that op, unless the checkpointing
// policy drops it at the forward peak and re-derives it just in time from its
// stored predecessor.  Whether checkpointing is worth it is decided by the
// planner (strictly lower peak, recompute cost priced on gpusim).  Training
// ops dispatch through the same Device abstraction — bit-deterministic on
// CPUDevice, priced per op on SimDevice — and train.Trainer wraps the planned
// executor into a step/epoch loop.  Note the naming split: core.Optimizer is
// the paper's layout planner, while the gradient-descent optimiser (SGD)
// lives here.
//
// # Verified IR contract
//
// A compiled Program is a closed intermediate representation with invariants
// every executor assumes, and the verify sub-package checks all of them
// statically: every buffer an op reads holds a defined value at that point
// (def-before-use over the linear op list, with alias-aware write tracking);
// alias chains are acyclic, point at reinterpret-compatible views and share
// their root's arena offset; an op may write a buffer whose root it also
// reads only when the layer declared in-place safety for exactly that shape
// and layout; every kernel that needs workspace has a scratch buffer at
// least as large as the layer's declared requirement (GEMM unroll, FFT
// spectrum planes, flatten staging); the memory plan's live ranges match a
// recomputed liveness analysis and the packed offsets never overlap two
// simultaneously-live buffers; training graphs recompute each checkpointed
// activation at most once, run every OpSGD after its layer's OpGradFilter
// and never touch a layer's weights after its update; and every op pins an
// accumulation order (a known algorithm), keeping results bit-deterministic.
// verify.Sharded extends the contract across pipeline-stage boundaries
// (contiguous tiling, boundary buffer identity, declared transfer sizes).
//
// Compile, CompileWithOptions, CompileLike, CompileFixedAlg, Shard and
// train.CompileTraining all run the checker when Options.Verify is set (the
// caller must import memcnn/internal/runtime/verify, which registers itself
// via RegisterVerifier — the indirection keeps the IR package free of a
// dependency on its own checker), and the test suite verifies every
// compiler output unconditionally, so the executors' assumptions are
// machine-checked on each change.
//
// Relatedly, the hot kernels the programs dispatch to are annotated
// //memcnn:noalloc: the directive (checked by internal/analyzers and
// cmd/memcnnvet) forbids heap allocation in the function body — closures,
// make/new/append, fmt/errors calls, slice/map literals, string building —
// except inside return statements (error paths run at most once) and on
// lines explicitly acknowledged with //memcnn:alloc-ok (the goroutine
// fan-out of the parallel kernels).  The annotation documents and enforces
// the steady-state-allocation-free contract this package's arena discipline
// depends on.
package runtime
