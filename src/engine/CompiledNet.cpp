//===- engine/CompiledNet.cpp ---------------------------------------------===//

#include "engine/CompiledNet.h"

#include "runtime/LayerOps.h"

#include "core/Legalizer.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "tensor/Transform.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

using namespace primsel;

//===----------------------------------------------------------------------===//
// CompiledNet: the compile phase
//===----------------------------------------------------------------------===//

CompiledNet::CompiledNet(const NetworkGraph &NetIn, const NetworkPlan &PlanIn,
                         const PrimitiveLibrary &LibIn,
                         const CompileOptions &Options)
    : Net(NetIn), SelPlan(PlanIn), Lib(LibIn), Opts(Options),
      Program(ExecutionPlan::compile(Net, SelPlan, Lib)),
      MPlan(planMemory(Net, SelPlan, Program)) {
  assert(isLegalized(SelPlan, Net) && "compiling requires a legalized plan");

  Prepared.resize(Net.numNodes());
  FcWeights.resize(Net.numNodes());

  Timer PrepareTimer;
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind)) {
      const ConvScenario &S = Node.Scenario;
      // Depthwise filters carry a single input channel.
      Kernel4D Weights(S.M, S.kernelChannels(), S.K);
      // Deterministic per-node weights so any two plans over the same
      // network compute the same function. Seeded by SeedId (= the node id
      // on hand-built graphs) so a pass-rewritten graph draws each layer's
      // weights from the same stream as its O0 original.
      Weights.fillRandom(Opts.WeightSeed + Node.SeedId);
      Weights.applySparsity(S.SparsityPct, Opts.WeightSeed + Node.SeedId + 1);
      // The whole weight-side phase -- packing, Winograd/FFT transforms,
      // quantization tables -- happens here, exactly once per artifact.
      Prepared[N] =
          prepareWithEpilogue(Lib.get(SelPlan.ConvPrim[N]), S, Weights);
    } else if (Node.L.Kind == LayerKind::FullyConnected) {
      const TensorShape &In = Net.node(Node.Inputs[0]).OutShape;
      size_t Flat = static_cast<size_t>(In.elements());
      FcWeights[N].reset(static_cast<size_t>(Node.L.OutChannels) * Flat);
      fillRandom(FcWeights[N].data(), FcWeights[N].size(),
                 Opts.WeightSeed + Node.SeedId);
      // Scale down so deep nets do not overflow float range.
      float Scale = 1.0f / std::sqrt(static_cast<float>(Flat));
      for (size_t I = 0; I < FcWeights[N].size(); ++I)
        FcWeights[N][I] *= Scale;
    } else if (Node.L.Kind == LayerKind::Bias) {
      // Standalone bias layer: the same deterministic stream the fused
      // epilogue would draw (BiasSeedId == SeedId until a pass fuses it).
      FcWeights[N].reset(static_cast<size_t>(Node.OutShape.C));
      fillEpilogueBias(FcWeights[N].data(), Node.OutShape.C,
                       Opts.WeightSeed + Node.BiasSeedId);
    }
  }
  PrepareMs = PrepareTimer.millis();

  // The JIT attempt runs after the interpreted state is fully built, so
  // every rung of the fallback ladder lands on a working artifact: no
  // compiler -> interpret, compile error -> interpret, per-context jit
  // context failure -> that context interprets. Compile time is charged to
  // the prepare phase -- it amortizes across requests exactly like kernel
  // packing.
  if (Opts.Jit) {
    Jit = jit::JitProgram::create(Net, SelPlan, Lib, Opts.WeightSeed,
                                  Opts.JitOpts, JitRep);
    PrepareMs += JitRep.CompileMs;
    if (!Jit)
      std::fprintf(stderr,
                   "primsel: warning: jit compile failed (%s); serving "
                   "interpreted\n",
                   JitRep.Error.c_str());
  }
}

std::shared_ptr<const CompiledNet>
CompiledNet::build(const NetworkGraph &Net, const NetworkPlan &Plan,
                   const PrimitiveLibrary &Lib,
                   const CompileOptions &Options) {
  // Not make_shared: the constructor is private, and a plain new keeps the
  // control block separate from the (large) artifact anyway.
  return std::shared_ptr<const CompiledNet>(
      new CompiledNet(Net, Plan, Lib, Options));
}

size_t CompiledNet::preparedBytes() const {
  size_t Bytes = 0;
  for (const std::shared_ptr<const PreparedKernel> &PK : Prepared)
    if (PK)
      Bytes += PK->bytes();
  for (const AlignedBuffer &B : FcWeights)
    Bytes += B.size() * sizeof(float);
  return Bytes;
}

unsigned CompiledNet::numPreparedKernels() const {
  unsigned Count = 0;
  for (const std::shared_ptr<const PreparedKernel> &PK : Prepared)
    Count += PK != nullptr;
  return Count;
}

std::unique_ptr<ExecutionContext>
CompiledNet::newContext(const ExecutionContextOptions &Options) const {
  return std::make_unique<ExecutionContext>(shared_from_this(), Options);
}

//===----------------------------------------------------------------------===//
// ExecutionContext: the run phase
//===----------------------------------------------------------------------===//

ExecutionContext::ExecutionContext(std::shared_ptr<const CompiledNet> CN,
                                   const ExecutionContextOptions &Options)
    : Compiled(std::move(CN)), Opts(Options) {
  const CompiledNet &C = *Compiled;
  if (Opts.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Opts.Threads);
  if (Opts.UseArena)
    Arena.reset(C.MPlan.ArenaFloats);

  Values.resize(C.MPlan.Values.size());
  Instances.resize(C.Net.numNodes());
  for (NetworkGraph::NodeId N = 0; N < C.Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = C.Net.node(N);
    if (isDummyKind(Node.L.Kind))
      continue;
    // Cheap bind against the shared prepared kernel; the epilogue bias
    // stream is regenerated from the same seed the one-shot path uses, so
    // the computed function is identical.
    Instances[N] = bindWithEpilogue(
        C.Lib.get(C.SelPlan.ConvPrim[N]), Node.Scenario, C.Prepared[N],
        C.Opts.WeightSeed + Node.BiasSeedId);
  }

  // Jitted artifact: additionally bind a generated-code context. The
  // interpreted instances above stay bound either way, so a failed jit
  // context (allocation failure inside the object) silently degrades this
  // one context to interpretation.
  if (C.isJitted())
    JitCtx = C.Jit->createContext();
}

ExecutionContext::~ExecutionContext() {
  if (JitCtx)
    Compiled->Jit->destroyContext(JitCtx);
}

const Tensor3D &ExecutionContext::outputOf(NetworkGraph::NodeId N) const {
  if (JitOut) {
    // The generated program materializes only the network output; other
    // nodes' tensors live inside the jit context.
    assert(!Compiled->Net.outputs().empty() &&
           N == Compiled->Net.outputs().front() &&
           "jitted contexts expose only the network output");
    return *JitOut;
  }
  const MemoryPlan &MPlan = Compiled->MPlan;
  assert((!Opts.UseArena || !MPlan.Values[MPlan.NodeValue[N]].inArena()) &&
         "arena mode recycles non-output intermediates; outputOf is only "
         "valid for network outputs");
  return Values[MPlan.NodeValue[N]];
}

const Tensor3D &ExecutionContext::networkOutput() const {
  std::vector<NetworkGraph::NodeId> Outs = Compiled->Net.outputs();
  assert(!Outs.empty() && "network without outputs");
  return outputOf(Outs.front());
}

/// The tensor for value \p V: a view into this context's arena slab when
/// the value is packed, a fresh owned allocation otherwise.
Tensor3D ExecutionContext::makeValueTensor(ValueId V) {
  const ValueInfo &VI = Compiled->MPlan.Values[V];
  if (Opts.UseArena && VI.inArena())
    return Tensor3D(VI.Shape.C, VI.Shape.H, VI.Shape.W, VI.L,
                    Arena.data() + VI.ArenaOffset);
  return Tensor3D(VI.Shape.C, VI.Shape.H, VI.Shape.W, VI.L);
}

/// The tensor feeding input \p Index of \p Consumer, after any conversion
/// chain.
const Tensor3D &ExecutionContext::inputTensor(NetworkGraph::NodeId Consumer,
                                              unsigned Index) {
  return Values[Compiled->MPlan.inputValue(Compiled->Net, Consumer, Index)];
}

void ExecutionContext::runDummy(const NetworkGraph::Node &Node,
                                NetworkGraph::NodeId N, Tensor3D &Out,
                                ThreadPool *PrimPool) {
  const Tensor3D &In = inputTensor(N, 0);
  const std::vector<AlignedBuffer> &FcWeights = Compiled->FcWeights;

  switch (Node.L.Kind) {
  case LayerKind::ReLU:
    reluOp(In, Out);
    break;
  case LayerKind::Bias:
    biasOp(FcWeights[N].data(), In, Out);
    break;
  case LayerKind::Dropout:
    identityOp(In, Out);
    break;
  case LayerKind::Softmax:
    softmaxOp(In, Out);
    break;
  case LayerKind::MaxPool:
  case LayerKind::AvgPool:
    poolOp(Node.L.Kind == LayerKind::MaxPool, Node.L.KernelSize,
           Node.L.Stride, Node.L.Pad, In, Out);
    break;
  case LayerKind::LRN:
    lrnOp(In, Out);
    break;
  case LayerKind::Concat:
  case LayerKind::Add: {
    std::vector<const Tensor3D *> Parts;
    for (unsigned I = 0; I < Node.Inputs.size(); ++I)
      Parts.push_back(&inputTensor(N, I));
    if (Node.L.Kind == LayerKind::Concat)
      concatOp(Parts, Out);
    else
      addOp(Parts, Out);
    break;
  }
  case LayerKind::GlobalAvgPool:
    globalAvgPoolOp(In, Out);
    break;
  case LayerKind::FullyConnected:
    fullyConnectedOp(FcWeights[N].data(), In, Out, PrimPool);
    break;
  case LayerKind::Input:
  case LayerKind::Conv:
  case LayerKind::DepthwiseConv:
    assert(false && "not a dummy layer");
    break;
  }

  // Fused activation on dummy absorbers (Add+ReLU, Pool+ReLU), applied in
  // place by the same shared applier the conv wrapper uses.
  if (Node.L.Epi != EpilogueKind::None)
    applyEpilogue(Node.L.Epi, nullptr, Out);
}

void ExecutionContext::executeStep(unsigned StepIndex, const Tensor3D &Input,
                                   RunResult &R, ThreadPool *PrimPool) {
  const CompiledNet &C = *Compiled;
  const ExecStep &Step = C.Program.steps()[StepIndex];
  const NetworkGraph::Node &Node = C.Net.node(Step.Node);
  switch (Step.K) {
  case ExecStep::Kind::Input: {
    assert(Input.layout() == C.SelPlan.OutLayout[Step.Node] &&
           "network input must arrive in the canonical layout");
    assert(Input.channels() == Node.OutShape.C &&
           Input.height() == Node.OutShape.H &&
           Input.width() == Node.OutShape.W && "input shape mismatch");
    Tensor3D Copy = makeValueTensor(C.MPlan.Produced[StepIndex]);
    std::memcpy(Copy.data(), Input.data(),
                static_cast<size_t>(Input.size()) * sizeof(float));
    Values[C.MPlan.Produced[StepIndex]] = std::move(Copy);
    break;
  }

  case ExecStep::Kind::Transform: {
    const Tensor3D &Src = Values[C.MPlan.TransformSrc[StepIndex]];
    assert(Src.layout() == Step.From && "chain out of sync");
    Tensor3D Dst = makeValueTensor(C.MPlan.Produced[StepIndex]);
    Timer T;
    runTransform(Src, Dst);
    R.TransformMillis += T.millis();
    Values[C.MPlan.Produced[StepIndex]] = std::move(Dst);
    break;
  }

  case ExecStep::Kind::Conv: {
    const Tensor3D &In = inputTensor(Step.Node, 0);
    Tensor3D Out = makeValueTensor(C.MPlan.Produced[StepIndex]);
    RunContext Ctx{PrimPool};
    // The plan's per-node worker count (the solver's thread-count
    // dimension) caps this node's intra-op parallelism; capping never
    // changes results, only speed. Plans without a thread axis leave the
    // historical behaviour untouched: the context's whole pool is usable.
    if (!C.SelPlan.ConvThreads.empty())
      Ctx.MaxThreads = static_cast<int>(C.SelPlan.convThreads(Step.Node));
    Timer T;
    Instances[Step.Node]->run(In, Out, Ctx);
    R.ConvMillis += T.millis();
    Values[C.MPlan.Produced[StepIndex]] = std::move(Out);
    break;
  }

  case ExecStep::Kind::Dummy: {
    Tensor3D Out = makeValueTensor(C.MPlan.Produced[StepIndex]);
    Timer T;
    runDummy(Node, Step.Node, Out, PrimPool);
    R.OtherMillis += T.millis();
    Values[C.MPlan.Produced[StepIndex]] = std::move(Out);
    break;
  }
  }
}

RunResult ExecutionContext::run(const Tensor3D &Input) {
  RunResult R;
  Timer Total;

  // Jitted path: one call into the generated straight-line program -- no
  // per-step dispatch, timing or allocation. Bit-identical to the
  // interpreted pass below by construction (same primitives, same bound
  // instances, same layer operators, same seeds).
  if (JitCtx) {
    JitOut = &Compiled->Jit->run(JitCtx, Input, Pool.get());
    R.TotalMillis = Total.millis();
    return R;
  }

  const MemoryPlan &MPlan = Compiled->MPlan;

  // Levels in order; a level's steps only read values defined in earlier
  // levels, so within a level any order -- including concurrent -- is
  // valid, and the arena packing (level-granular lifetimes) stays sound.
  bool Parallel = Opts.ParallelBranches && Pool && Pool->numThreads() > 1;
  ThreadPool *PrimPool = Parallel ? nullptr : Pool.get();
  if (!Parallel) {
    for (const std::vector<unsigned> &Level : MPlan.Levels)
      for (unsigned StepIndex : Level)
        executeStep(StepIndex, Input, R, PrimPool);
  } else {
    std::mutex Merge;
    for (const std::vector<unsigned> &Level : MPlan.Levels) {
      Pool->parallelFor(0, static_cast<int64_t>(Level.size()),
                        [&](int64_t I) {
                          RunResult Local;
                          executeStep(Level[static_cast<size_t>(I)], Input,
                                      Local, nullptr);
                          std::lock_guard<std::mutex> Lock(Merge);
                          R.ConvMillis += Local.ConvMillis;
                          R.TransformMillis += Local.TransformMillis;
                          R.OtherMillis += Local.OtherMillis;
                        });
    }
  }
  R.TotalMillis = Total.millis();
  return R;
}
