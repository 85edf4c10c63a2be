//===- perfbench/src/Replay.cpp - Tracer, cost counter, replays -----------===//
//
// Part of primsel's benchmark. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "gemm/Gemm.h"
#include "primitives/Primitive.h"
#include "support/AlignedBuffer.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

using namespace primsel;

namespace perfbench {

//===-- Tracer ------------------------------------------------------------===//

int Tracer::begin(const std::string &Name, int Parent, uint64_t Request) {
  if (!On)
    return -1;
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({Name, Now, Now, Parent, Request});
  return static_cast<int>(Spans.size() - 1);
}

void Tracer::end(int Id) {
  if (!On || Id < 0)
    return;
  int64_t Now = nowNs();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

void Tracer::add(const std::string &Name, int64_t StartNs, int64_t EndNs,
                 int Parent, uint64_t Request) {
  if (!On)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back({Name, StartNs, EndNs, Parent, Request});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << ",\"request\":" << S.Request
        << "}\n";
  }
  return static_cast<bool>(Out);
}

//===-- CountingCosts -----------------------------------------------------===//

double CountingCosts::convCost(const ConvScenario &S, PrimitiveId Id) {
  return timed([&] { return Inner.convCost(S, Id); });
}

double CountingCosts::transformCost(Layout From, Layout To,
                                    const TensorShape &Shape) {
  return timed([&] { return Inner.transformCost(From, To, Shape); });
}

CostBreakdown CountingCosts::convCostBreakdown(const ConvScenario &S,
                                               PrimitiveId Id) {
  return timed([&] { return Inner.convCostBreakdown(S, Id); });
}

CostBreakdown CountingCosts::transformCostBreakdown(Layout From, Layout To,
                                                    const TensorShape &Shape) {
  return timed([&] { return Inner.transformCostBreakdown(From, To, Shape); });
}

double CountingCosts::convServingCost(const ConvScenario &S, PrimitiveId Id) {
  return timed([&] { return Inner.convServingCost(S, Id); });
}

double CountingCosts::convCostAt(const ConvScenario &S, PrimitiveId Id,
                                 unsigned Threads) {
  return timed([&] { return Inner.convCostAt(S, Id, Threads); });
}

double CountingCosts::convServingCostAt(const ConvScenario &S, PrimitiveId Id,
                                        unsigned Threads) {
  return timed([&] { return Inner.convServingCostAt(S, Id, Threads); });
}

CostBreakdown CountingCosts::convCostBreakdownAt(const ConvScenario &S,
                                                 PrimitiveId Id,
                                                 unsigned Threads) {
  return timed([&] { return Inner.convCostBreakdownAt(S, Id, Threads); });
}

//===-- Replays -----------------------------------------------------------===//

namespace {

/// Median milliseconds of \p Body over \p Reps timed calls after one
/// untimed warm-up.
template <typename F> double medianMs(unsigned Reps, F &&Body) {
  Body();
  std::vector<double> Ms;
  Ms.reserve(Reps);
  for (unsigned I = 0; I < Reps; ++I) {
    int64_t Start = nowNs();
    Body();
    Ms.push_back(static_cast<double>(nowNs() - Start) / 1e6);
  }
  return median(std::move(Ms));
}

} // namespace

std::vector<NodeRow> replayPlan(const std::string &Model,
                                const CompiledNet &CN, CostProvider &Costs,
                                unsigned CtxThreads, unsigned Reps) {
  const NetworkGraph &Net = CN.graph();
  const NetworkPlan &Plan = CN.plan();
  const PrimitiveLibrary &Lib = CN.library();
  // The artifact's weights, so replays run the kernels the plan serves.
  const uint64_t WeightSeed = CN.options().WeightSeed;
  std::vector<NodeRow> Rows;
  std::vector<std::unique_ptr<ThreadPool>> Pools(CtxThreads + 1);
  auto PoolFor = [&](unsigned T) -> ThreadPool * {
    if (T <= 1)
      return nullptr;
    if (!Pools[T])
      Pools[T] = std::make_unique<ThreadPool>(T);
    return Pools[T].get();
  };

  for (const ExecStep &Step : CN.program().steps()) {
    const NetworkGraph::Node &Node = Net.node(Step.Node);
    NodeRow Row;
    Row.Model = Model;
    Row.Node = Step.Node;
    if (Step.K == ExecStep::Kind::Conv) {
      const ConvScenario &S = Node.Scenario;
      PrimitiveId Id = Plan.ConvPrim[Step.Node];
      const ConvPrimitive &P = Lib.get(Id);
      // The executor caps a node at the plan's thread count when the plan
      // has a thread axis and lets it use the whole context pool otherwise.
      unsigned Threads =
          Plan.ConvThreads.empty()
              ? CtxThreads
              : std::min(CtxThreads, Plan.convThreads(Step.Node));
      Kernel4D Weights(S.M, S.kernelChannels(), S.K);
      Weights.fillRandom(WeightSeed + Node.SeedId);
      Weights.applySparsity(S.SparsityPct, WeightSeed + Node.SeedId + 1);
      std::unique_ptr<ConvInstance> Inst = bindWithEpilogue(
          P, S, prepareWithEpilogue(P, S, Weights),
          WeightSeed + Node.BiasSeedId);
      Tensor3D In(S.C, S.H, S.W, P.inputLayout());
      In.fillRandom(WeightSeed + Step.Node);
      Tensor3D Out(Node.OutShape.C, Node.OutShape.H, Node.OutShape.W,
                   P.outputLayout());
      RunContext Ctx{PoolFor(Threads), static_cast<int>(Threads)};
      Row.IsConv = true;
      Row.Routine = P.name();
      Row.Family = convFamilyName(P.family());
      Row.Threads = Threads;
      Row.ModelledMs = Costs.convServingCostAt(S, Id, Threads);
      Row.MeasuredMs = medianMs(Reps, [&] { Inst->run(In, Out, Ctx); });
      Row.Flops = 2.0 * S.macs();
      if (!S.Depthwise) {
        Row.GemmM = S.M;
        Row.GemmN = S.outHeight() * S.outWidth();
        Row.GemmK = S.C * S.K * S.K;
      }
    } else if (Step.K == ExecStep::Kind::Transform) {
      const TensorShape &Shape =
          Net.node(Node.Inputs[Step.InputIndex]).OutShape;
      Tensor3D Src(Shape.C, Shape.H, Shape.W, Step.From);
      Src.fillRandom(WeightSeed + Step.Node);
      Tensor3D Dst(Shape.C, Shape.H, Shape.W, Step.To);
      Row.Routine = std::string(layoutName(Step.From)) + "->" +
                    layoutName(Step.To);
      Row.Family = "transform";
      Row.ModelledMs = Costs.transformCost(Step.From, Step.To, Shape);
      Row.MeasuredMs = medianMs(Reps, [&] { runTransform(Src, Dst); });
    } else {
      continue;
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

RunBreakdown isolatedRuns(const std::shared_ptr<const CompiledNet> &CN,
                          const ExecutionContextOptions &Opts,
                          const Tensor3D &Input, unsigned Reps) {
  std::unique_ptr<ExecutionContext> Ctx = CN->newContext(Opts);
  Ctx->run(Input);
  std::vector<double> Run, Conv, Other;
  for (unsigned I = 0; I < Reps; ++I) {
    RunResult R = Ctx->run(Input);
    Run.push_back(R.TotalMillis);
    Conv.push_back(R.ConvMillis);
    Other.push_back(R.OtherMillis);
  }
  return {median(Run), median(Conv), median(Other)};
}

double gemmProbeGflops(const std::vector<NodeRow> &Rows, unsigned Reps) {
  const NodeRow *Best = nullptr;
  for (const NodeRow &R : Rows)
    if (R.GemmM > 0 &&
        (!Best || R.GemmM * R.GemmN * R.GemmK >
                      Best->GemmM * Best->GemmN * Best->GemmK))
      Best = &R;
  if (!Best)
    return 0.0;
  int64_t M = Best->GemmM, N = Best->GemmN, K = Best->GemmK;
  AlignedBuffer A(static_cast<size_t>(M * K)), B(static_cast<size_t>(K * N)),
      C(static_cast<size_t>(M * N));
  fillRandom(A.data(), A.size(), 3);
  fillRandom(B.data(), B.size(), 5);
  std::unique_ptr<ThreadPool> Pool;
  if (Best->Threads > 1)
    Pool = std::make_unique<ThreadPool>(Best->Threads);
  double Ms = medianMs(Reps, [&] {
    sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C.data(), N,
          false, Pool.get(), static_cast<int>(Best->Threads));
  });
  return 2.0 * static_cast<double>(M * N * K) / (Ms * 1e6);
}

} // namespace perfbench
