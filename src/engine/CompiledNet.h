//===- engine/CompiledNet.h - Compile-once, serve-many artifact -*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile/run split of the serving stack. The paper observes (§4) that
/// profiled cost tables -- and, for Winograd/FFT/packed-GEMM primitives,
/// the kernel transforms themselves -- can be produced once before
/// deployment and shipped with the trained model. CompiledNet is that
/// shipped artifact: everything about one network instantiation that does
/// not depend on the request --
///
///  - the execution graph (an owned copy, so the artifact is
///    self-contained) and the legalized selection plan;
///  - the linearized ExecutionPlan and the MemoryPlan arena template;
///  - one PreparedKernel per conv node (weights generated, packed and
///    transformed once -- the amortized work);
///  - the fully-connected weight matrices and standalone bias vectors.
///
/// It is immutable after build() and safe to share across threads. The
/// per-request state lives in ExecutionContext: its own arena slab, value
/// table, thread pool and cheaply-bound ConvInstances (instances carry
/// per-run scratch, so each context binds its own from the shared
/// PreparedKernels). Any number of contexts serve one CompiledNet
/// concurrently, and each computes bit-identically to the sequential
/// Executor -- which is itself implemented as one CompiledNet plus one
/// ExecutionContext, so there is exactly one execution path to trust.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_ENGINE_COMPILEDNET_H
#define PRIMSEL_ENGINE_COMPILEDNET_H

#include "core/Plan.h"
#include "jit/JitRuntime.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/Executor.h" // RunResult; the Executor facade forward-
                              // declares this header's types, so no cycle
#include "runtime/MemoryPlanner.h"
#include "support/AlignedBuffer.h"
#include "tensor/Tensor.h"

#include <memory>
#include <vector>

namespace primsel {

class ThreadPool;
class ExecutionContext;

/// Compile-time knobs of a CompiledNet.
struct CompileOptions {
  /// Seed for the deterministic per-layer weights (same meaning as
  /// ExecutorOptions::WeightSeed; equal seeds make a CompiledNet and a
  /// plain Executor compute the same function).
  uint64_t WeightSeed = 7;
  /// Also JIT-compile the plan (emitPlanSource -> system compiler ->
  /// dlopen) and serve the generated straight-line program instead of
  /// interpreting. On any failure -- no compiler, compile error, load
  /// error -- the artifact stays fully functional and serves interpreted;
  /// jitReport().Error says why.
  bool Jit = false;
  /// Compiler/cache knobs for the JIT (Engine::compile defaults the cache
  /// directory to its PlanCacheDir so objects amortize across processes).
  jit::JitOptions JitOpts;
};

/// Per-context (per-request/per-thread) execution knobs; the runtime
/// subset of ExecutorOptions.
struct ExecutionContextOptions {
  /// Pool width for this context. With ParallelBranches off the pool
  /// parallelizes within each primitive; with it on, independent steps of
  /// a level run concurrently and primitives execute single-threaded.
  unsigned Threads = 1;
  /// Back intermediates with this context's own slab of the compile-time
  /// arena layout instead of per-value allocations.
  bool UseArena = false;
  /// Run independent steps of each dependence level concurrently
  /// (effective when Threads > 1).
  bool ParallelBranches = false;
};

/// The immutable compile-once artifact. Build it directly or through
/// Engine::compile; create one ExecutionContext per serving thread.
class CompiledNet : public std::enable_shared_from_this<CompiledNet> {
public:
  /// Compile \p Plan over \p Net: copy the graph, linearize, memory-plan,
  /// generate the deterministic weights and run every conv node's
  /// prepare(). \p Plan must be legalized (asserted). \p Lib must outlive
  /// the artifact.
  static std::shared_ptr<const CompiledNet>
  build(const NetworkGraph &Net, const NetworkPlan &Plan,
        const PrimitiveLibrary &Lib, const CompileOptions &Options = {});

  /// The owned copy of the execution graph (node ids match the plan's).
  const NetworkGraph &graph() const { return Net; }
  const NetworkPlan &plan() const { return SelPlan; }
  const ExecutionPlan &program() const { return Program; }
  const MemoryPlan &memoryPlan() const { return MPlan; }
  const PrimitiveLibrary &library() const { return Lib; }
  const CompileOptions &options() const { return Opts; }

  /// Bytes held by the prepared kernels plus the FC/bias weight buffers --
  /// the artifact's weight-side footprint.
  size_t preparedBytes() const;
  /// Conv nodes whose kernels were prepared at compile time.
  unsigned numPreparedKernels() const;
  /// Wall-clock milliseconds build() spent in weight generation and
  /// prepare() -- the one-time cost requests no longer pay. For JIT
  /// artifacts this includes jitCompileMillis(): compile time is
  /// prepare-phase amortizable cost.
  double prepareMillis() const { return PrepareMs; }

  /// True when a JIT object is loaded and contexts serve the generated
  /// straight-line program. False means interpreted -- either Jit was off
  /// or the fallback ladder engaged (see jitReport().Error).
  bool isJitted() const { return Jit != nullptr; }
  /// What the JIT attempt did (default-constructed when Jit was off).
  const jit::JitReport &jitReport() const { return JitRep; }
  /// Size of the loaded shared object (0 when not jitted); charged to the
  /// fleet budget on top of preparedBytes().
  size_t jitObjectBytes() const { return Jit ? Jit->objectBytes() : 0; }
  /// Wall-clock milliseconds spent emitting + compiling + loading the JIT
  /// object (0 when Jit was off; included in prepareMillis()).
  double jitCompileMillis() const { return JitRep.CompileMs; }

  /// A fresh, independent per-request context. Thread-safe: any number of
  /// threads may create and run contexts concurrently.
  std::unique_ptr<ExecutionContext>
  newContext(const ExecutionContextOptions &Options = {}) const;

private:
  friend class ExecutionContext;

  CompiledNet(const NetworkGraph &NetIn, const NetworkPlan &PlanIn,
              const PrimitiveLibrary &LibIn, const CompileOptions &Options);

  NetworkGraph Net; ///< owned copy; the artifact is self-contained
  NetworkPlan SelPlan;
  const PrimitiveLibrary &Lib;
  CompileOptions Opts;
  ExecutionPlan Program;
  MemoryPlan MPlan;
  double PrepareMs = 0.0;

  /// Per conv node: the shared weight-side artifact (null elsewhere).
  std::vector<std::shared_ptr<const PreparedKernel>> Prepared;
  /// Per node: FC weight matrices and standalone bias vectors, read-only
  /// at run time and therefore shared by every context.
  std::vector<AlignedBuffer> FcWeights;
  /// The loaded JIT object (null when Jit is off or the fallback ladder
  /// engaged). The interpreted state above is always built regardless, so
  /// a context whose JIT context creation fails still serves.
  std::unique_ptr<jit::JitProgram> Jit;
  jit::JitReport JitRep;
};

/// The lightweight per-request half: binds instances from the shared
/// PreparedKernels, owns its arena slab/value table/pool, and interprets
/// the compiled program. Not thread-safe itself -- one context per serving
/// thread -- but independent contexts never share mutable state, so they
/// run concurrently and bit-identically to the sequential executor.
class ExecutionContext {
public:
  ExecutionContext(std::shared_ptr<const CompiledNet> Compiled,
                   const ExecutionContextOptions &Options);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext &) = delete;
  ExecutionContext &operator=(const ExecutionContext &) = delete;

  /// One forward pass. \p Input must be CHW with the input layer's shape.
  RunResult run(const Tensor3D &Input);

  /// Output tensor of node \p N from the most recent run(). In arena mode,
  /// only valid for network outputs (asserted): other nodes' bytes are
  /// recycled during the pass.
  const Tensor3D &outputOf(NetworkGraph::NodeId N) const;

  /// Output tensor of the network's (first) output node.
  const Tensor3D &networkOutput() const;

  const CompiledNet &compiled() const { return *Compiled; }
  const ExecutionContextOptions &options() const { return Opts; }

  /// Bytes of this context's arena slab (0 when UseArena is off).
  size_t arenaBytes() const { return Arena.size() * sizeof(float); }

private:
  void executeStep(unsigned StepIndex, const Tensor3D &Input, RunResult &R,
                   ThreadPool *PrimPool);
  void runDummy(const NetworkGraph::Node &Node, NetworkGraph::NodeId N,
                Tensor3D &Out, ThreadPool *PrimPool);
  Tensor3D makeValueTensor(ValueId V);
  const Tensor3D &inputTensor(NetworkGraph::NodeId Consumer, unsigned Index);

  std::shared_ptr<const CompiledNet> Compiled;
  ExecutionContextOptions Opts;
  std::unique_ptr<ThreadPool> Pool;

  /// Generated-code context when the artifact is jitted (null otherwise
  /// or when its creation failed -- then this context interprets).
  /// ParallelBranches does not apply to the straight-line program.
  void *JitCtx = nullptr;
  /// The jit context's output tensor after the latest jitted run().
  const Tensor3D *JitOut = nullptr;

  /// Conv instances bound from the shared prepared kernels, indexed by
  /// node. Binding is cheap (no weight work); instances hold this
  /// context's per-run scratch.
  std::vector<std::unique_ptr<ConvInstance>> Instances;
  /// Backing storage for arena-packed values (UseArena only).
  AlignedBuffer Arena;
  /// Per-run tensors, indexed by ValueId (node outputs and chain hops).
  std::vector<Tensor3D> Values;
};

} // namespace primsel

#endif // PRIMSEL_ENGINE_COMPILEDNET_H
