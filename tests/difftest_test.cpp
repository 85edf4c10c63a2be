//===- tests/difftest_test.cpp - Differential testing of new workloads ----===//
//
// The differential harness (tests/DiffTesting.h) applied to the residual /
// depthwise workloads:
//
//   1. every primitive in the extended library, on randomized dense and
//      depthwise scenarios, reproduces the reference oracle;
//   2. resnet18 and mobilenet, optimized by each tractable solver backend,
//      execute output-equivalent to the reference instantiation under the
//      full arena x parallel serving grid, with the serving options
//      bit-identical among themselves;
//   3. a small residual net whose assignment space the brute-force backend
//      can enumerate proves all three backends agree (provably optimal,
//      equal modelled cost, reference-equivalent execution). The full
//      models are out of brute force's contract by construction: their
//      assignment space exceeds MaxBruteForceAssignments, which the engine
//      refuses cleanly rather than solving (see checkBruteSpace in the
//      CLI), so exhaustive cross-checking lives on this reduced instance.
//
//===----------------------------------------------------------------------===//

#include "DiffTesting.h"

#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"
#include "serve/Server.h"
#include "support/ThreadPool.h"
#include "transforms/Pass.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

using namespace primsel;
using namespace primsel::difftest;

namespace {

const PrimitiveLibrary &library() {
  static PrimitiveLibrary Lib = buildExtendedLibrary();
  return Lib;
}

//===----------------------------------------------------------------------===//
// 1. Primitive-level differential sweep on randomized shapes.
//===----------------------------------------------------------------------===//

class PrimitiveDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrimitiveDiff, EveryPrimitiveMatchesOracleOnRandomScenarios) {
  Rng R(GetParam());
  const ConvScenario Scenarios[] = {randomDenseScenario(R),
                                    randomDepthwiseScenario(R)};
  unsigned Covered = 0;
  for (const ConvScenario &S : Scenarios)
    for (PrimitiveId Id = 0; Id < library().size(); ++Id) {
      const ConvPrimitive &P = library().get(Id);
      if (P.isDepthwise() != S.Depthwise || !P.supportsBatch(S.Batch) ||
          !P.supports(S))
        continue;
      expectPrimitiveMatchesReference(P, S, GetParam() * 977 + Id);
      ++Covered;
    }
  // Both scenario kinds must have found a non-trivial candidate set.
  EXPECT_GT(Covered, 10u);
}

TEST_P(PrimitiveDiff, DepthwiseScenariosDrawOnlyDepthwisePrimitives) {
  Rng R(GetParam() + 131);
  ConvScenario Dw = randomDepthwiseScenario(R);
  std::vector<PrimitiveId> Ids = library().supporting(Dw);
  ASSERT_GE(Ids.size(), 2u) << "depthwise selection needs a real choice";
  for (PrimitiveId Id : Ids) {
    EXPECT_TRUE(library().get(Id).isDepthwise()) << library().get(Id).name();
    EXPECT_EQ(library().get(Id).family(), ConvFamily::Depthwise);
  }
  // And the dense twin of the same shape draws none of them.
  ConvScenario Dense = Dw;
  Dense.Depthwise = false;
  for (PrimitiveId Id : library().supporting(Dense))
    EXPECT_FALSE(library().get(Id).isDepthwise()) << library().get(Id).name();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimitiveDiff,
                         ::testing::Range<uint64_t>(1, 7));

//===----------------------------------------------------------------------===//
// 1b. Banded 1-D Winograd: the row bands and their packed pointwise GEMMs.
//===----------------------------------------------------------------------===//

/// Shapes that stress the 1-D band loop for every m/r: several bands with a
/// ragged last one (and Wo not a multiple of m), a single tile per row
/// (Tw = 1) with full 32-pixel bands, and C = 300, deeper than one KC slab.
std::vector<ConvScenario> wino1dBandScenarios(int64_t R) {
  const int64_t Pad = R / 2;
  return {
      ConvScenario{5, 37, 7, 1, R, 9, Pad},
      ConvScenario{4, 40, 9, 1, R, 6, 0},
      ConvScenario{3, 70, 2, 1, R, 4, Pad},
      ConvScenario{300, 9, 10, 1, R, 40, Pad},
  };
}

std::vector<PrimitiveId> wino1dPrimitives() {
  std::vector<PrimitiveId> Ids;
  for (PrimitiveId Id = 0; Id < library().size(); ++Id)
    if (library().get(Id).name().rfind("wino1d-", 0) == 0)
      Ids.push_back(Id);
  return Ids;
}

TEST(Wino1DBands, EveryVariantMatchesOracleAcrossBandShapes) {
  std::vector<PrimitiveId> Ids = wino1dPrimitives();
  // m2r3, m4r3, m2r5, m3r5 in chw-chw (x2 vector factors), hwc-chw and
  // chw-hwc.
  ASSERT_EQ(Ids.size(), 16u);
  size_t Covered = 0;
  for (PrimitiveId Id : Ids) {
    const ConvPrimitive &P = library().get(Id);
    for (int64_t R : {int64_t(3), int64_t(5)})
      for (const ConvScenario &S : wino1dBandScenarios(R))
        if (P.supports(S)) {
          expectPrimitiveMatchesReference(P, S, 4242 + Id);
          ++Covered;
        }
  }
  // Every variant runs every shape at its own filter size.
  EXPECT_EQ(Covered, 4 * Ids.size());
}

// Band transforms split over rows, frequencies and filters, with each
// product serial inside its worker: the output bits cannot depend on the
// pool width or the worker cap.
TEST(Wino1DBands, BitIdenticalAcrossPoolWidthsAndCaps) {
  ThreadPool Pool1(1), Pool2(2), Pool4(4);
  for (PrimitiveId Id : wino1dPrimitives()) {
    const ConvPrimitive &P = library().get(Id);
    for (int64_t R : {int64_t(3), int64_t(5)})
      for (const ConvScenario &S : wino1dBandScenarios(R)) {
        if (!P.supports(S))
          continue;
        Tensor3D InCHW(S.C, S.H, S.W, Layout::CHW);
        InCHW.fillRandom(17 + Id);
        Tensor3D In = convertToLayout(InCHW, P.inputLayout());
        Kernel4D W(S.M, S.C, S.K);
        W.fillRandom(18 + Id);
        std::unique_ptr<ConvInstance> Inst = P.instantiate(S, W);

        Tensor3D Serial(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
        Inst->run(In, Serial, RunContext{nullptr});
        for (ThreadPool *Pool : {&Pool1, &Pool2, &Pool4})
          for (int MaxThreads : {0, 1, 2, 3}) {
            Tensor3D Out(S.M, S.outHeight(), S.outWidth(), P.outputLayout());
            Inst->run(In, Out, RunContext{Pool, MaxThreads});
            EXPECT_EQ(maxAbsDifference(Serial, Out), 0.0f)
                << P.name() << " on " << S.key() << " pool "
                << Pool->numThreads() << " cap " << MaxThreads;
          }
      }
  }
}

//===----------------------------------------------------------------------===//
// 2. Whole-model differential grid: resnet18 / mobilenet, per backend, all
//    serving configurations.
//===----------------------------------------------------------------------===//

struct ModelCase {
  const char *Model;
  const char *Solver;
};

class ModelDiff : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ModelDiff, AllServingConfigsMatchReference) {
  const ModelCase &Case = GetParam();
  std::optional<NetworkGraph> Net = buildModel(Case.Model, /*Scale=*/0.1);
  ASSERT_TRUE(Net.has_value());

  AnalyticCostProvider Costs(library(), MachineProfile::haswell());
  EngineOptions EOpts;
  EOpts.Solver = Case.Solver;
  Engine Eng(library(), Costs, EOpts);
  SelectionResult R = Eng.optimize(*Net);
  ASSERT_FALSE(R.Plan.empty());
  ASSERT_TRUE(isLegalized(R.Plan, *Net));
  for (NetworkGraph::NodeId N : Net->convNodes()) {
    const ConvPrimitive &P = library().get(R.Plan.ConvPrim[N]);
    EXPECT_TRUE(P.supports(Net->node(N).Scenario)) << P.name();
    EXPECT_EQ(P.isDepthwise(),
              Net->node(N).L.Kind == LayerKind::DepthwiseConv)
        << P.name();
  }

  const TensorShape &Sh = Net->node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(23);

  NetworkPlan Reference = referencePlan(*Net, library(), Costs);
  PlanConfig Plain{Case.Solver, /*UseArena=*/false,
                   /*ParallelBranches=*/false};
  std::vector<Tensor3D> Expected =
      runPlanOutputs(*Net, Reference, library(), Plain, Input);
  std::vector<Tensor3D> Baseline =
      runPlanOutputs(*Net, R.Plan, library(), Plain, Input);
  expectOutputsClose(Baseline, Expected,
                     std::string(Case.Model) + "/" + Plain.describe());

  for (const PlanConfig &Config : planConfigs({Case.Solver})) {
    std::vector<Tensor3D> Outs =
        runPlanOutputs(*Net, R.Plan, library(), Config, Input);
    expectOutputsBitIdentical(
        Outs, Baseline, std::string(Case.Model) + "/" + Config.describe());
  }
}

std::string modelCaseName(const ::testing::TestParamInfo<ModelCase> &Info) {
  std::string Name =
      std::string(Info.param.Model) + "_" + Info.param.Solver;
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(ResidualModels, ModelDiff,
                         ::testing::Values(ModelCase{"resnet18", "reduction"},
                                           ModelCase{"resnet18", "bb"},
                                           ModelCase{"mobilenet", "reduction"},
                                           ModelCase{"mobilenet", "bb"}),
                         modelCaseName);

//===----------------------------------------------------------------------===//
// 2b. The O0 x O1 axis: the graph-transform pipeline must not change a
//     single output bit. O1 rewrites the graph (epilogue fusion, identity
//     elimination) before selection; because the analytic model prices a
//     fused scenario as the bare routine plus a primitive-independent
//     surcharge, O0 and O1 select the same routine per conv, and the
//     fused epilogues are exact -- so outputs match bit-for-bit across
//     the whole serving grid on all three models.
//===----------------------------------------------------------------------===//

class PipelineDiff : public ::testing::TestWithParam<ModelCase> {};

TEST_P(PipelineDiff, O1OutputsBitIdenticalToO0AcrossServingGrid) {
  std::optional<NetworkGraph> Net = buildModel(GetParam().Model, /*Scale=*/0.1);
  ASSERT_TRUE(Net.has_value());
  AnalyticCostProvider Costs(library(), MachineProfile::haswell());

  const TensorShape &Sh = Net->node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(23);

  // Solvers may legitimately break equal-cost ties differently, so O0 and
  // O1 are compared under the same solver, like the rest of the grid.
  {
    const char *Solver = GetParam().Solver;
    EngineOptions O0;
    O0.Solver = Solver;
    Engine EngO0(library(), Costs, O0);
    SelectionResult R0 = EngO0.optimize(*Net);
    ASSERT_FALSE(R0.Plan.empty());
    ASSERT_EQ(R0.Rewritten, nullptr);

    EngineOptions O1 = O0;
    O1.Passes = transforms::PassPipeline::defaultPassNames();
    Engine EngO1(library(), Costs, O1);
    SelectionResult R1 = EngO1.optimize(*Net);
    ASSERT_FALSE(R1.Plan.empty());
    ASSERT_NE(R1.Rewritten, nullptr);
    // The pipeline genuinely shrinks all three models.
    EXPECT_LT(R1.Rewritten->numNodes(), Net->numNodes());
    ASSERT_TRUE(isLegalized(R1.Plan, *R1.Rewritten));

    PlanConfig Plain{Solver, false, false};
    std::vector<Tensor3D> BaselineO0 =
        runPlanOutputs(*Net, R0.Plan, library(), Plain, Input);
    std::vector<Tensor3D> BaselineO1 =
        runPlanOutputs(*R1.Rewritten, R1.Plan, library(), Plain, Input);
    expectOutputsBitIdentical(BaselineO1, BaselineO0,
                              std::string(GetParam().Model) + "/" + Solver +
                                  "/O1-vs-O0");

    // And every serving configuration of the O1 plan reproduces the O0
    // bits: the full arena x parallel grid rides the new axis.
    for (const PlanConfig &Config : planConfigs({Solver})) {
      std::vector<Tensor3D> Outs =
          runPlanOutputs(*R1.Rewritten, R1.Plan, library(), Config, Input);
      expectOutputsBitIdentical(Outs, BaselineO0,
                                std::string(GetParam().Model) + "/O1/" +
                                    Config.describe());
    }
  }
}

// bb joins on the models the rest of the grid runs it on; googlenet's
// instance is reduction-only (branch-and-bound over 57 conv layers is out
// of the CI budget at O0, exactly as in ModelDiff above).
INSTANTIATE_TEST_SUITE_P(Models, PipelineDiff,
                         ::testing::Values(ModelCase{"resnet18", "reduction"},
                                           ModelCase{"resnet18", "bb"},
                                           ModelCase{"mobilenet", "reduction"},
                                           ModelCase{"mobilenet", "bb"},
                                           ModelCase{"googlenet", "reduction"}),
                         modelCaseName);

//===----------------------------------------------------------------------===//
// 2c. The exec-threads axis: with ExecThreadCandidates {1, 2, 4} the solver
//     annotates conv nodes with per-node worker counts, and the packed
//     macro-kernels promise those annotations never change a single output
//     bit -- tile partitioning redistributes whole micro-tiles across
//     workers without reordering any per-element accumulation. The promise
//     is pinned three ways: the annotated plan across pool widths 1/2/4,
//     the annotated plan against its thread-stripped twin, and a plan
//     force-annotated to 4 workers on every conv against the sequential
//     baseline.
//===----------------------------------------------------------------------===//

/// runPlanOutputs with an explicit pool width (the harness helper derives
/// Threads from ParallelBranches, which this axis must control directly).
std::vector<Tensor3D> runPlanOutputsAtThreads(const NetworkGraph &Net,
                                              const NetworkPlan &Plan,
                                              unsigned PoolThreads,
                                              const Tensor3D &Input) {
  ExecutorOptions Opts;
  Opts.Threads = PoolThreads;
  Opts.WeightSeed = 7;
  Executor Exec(Net, Plan, library(), Opts);
  Exec.run(Input);
  std::vector<Tensor3D> Outs;
  for (NetworkGraph::NodeId N : Net.outputs())
    Outs.push_back(convertToLayout(Exec.outputOf(N), Layout::CHW));
  return Outs;
}

class ThreadsDiff : public ::testing::TestWithParam<const char *> {};

TEST_P(ThreadsDiff, ThreadAnnotatedPlansBitIdenticalAcrossPoolWidths) {
  std::optional<NetworkGraph> Net = buildModel(GetParam(), /*Scale=*/0.1);
  ASSERT_TRUE(Net.has_value());

  AnalyticCostProvider Costs(library(), MachineProfile::haswell());
  EngineOptions EOpts;
  EOpts.Solver = "reduction";
  EOpts.ExecThreadCandidates = {1, 2, 4};
  Engine Eng(library(), Costs, EOpts);
  SelectionResult R = Eng.optimize(*Net);
  ASSERT_FALSE(R.Plan.empty());
  ASSERT_TRUE(isLegalized(R.Plan, *Net));

  // The Amdahl terms make extra workers profitable on the large layers, so
  // a non-trivial candidate axis must actually be used somewhere.
  ASSERT_FALSE(R.Plan.ConvThreads.empty())
      << GetParam() << ": thread axis requested but plan carries none";
  unsigned MaxChosen = 1;
  for (NetworkGraph::NodeId N : Net->convNodes())
    MaxChosen = std::max(MaxChosen, R.Plan.convThreads(N));
  EXPECT_GT(MaxChosen, 1u)
      << GetParam() << ": no conv selected a multi-worker alternative";

  const TensorShape &Sh = Net->node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(23);

  // Sequential reference: the same selection with the thread annotations
  // stripped, on a single-threaded executor (the historical code path).
  NetworkPlan Stripped = R.Plan;
  Stripped.ConvThreads.clear();
  std::vector<Tensor3D> Baseline =
      runPlanOutputsAtThreads(*Net, Stripped, /*PoolThreads=*/1, Input);

  // The annotated plan, across pool widths (width 1 caps every annotation
  // back to sequential execution; widths 2 and 4 actually fan out).
  for (unsigned Pool : {1u, 2u, 4u})
    expectOutputsBitIdentical(
        runPlanOutputsAtThreads(*Net, R.Plan, Pool, Input), Baseline,
        std::string(GetParam()) + "/exec-threads/pool" + std::to_string(Pool));

  // Force the maximum annotation on every conv: even layers the solver
  // kept sequential must split bit-identically.
  NetworkPlan Forced = R.Plan;
  Forced.ConvThreads.assign(Net->numNodes(), 1);
  for (NetworkGraph::NodeId N : Net->convNodes())
    Forced.ConvThreads[N] = 4;
  expectOutputsBitIdentical(
      runPlanOutputsAtThreads(*Net, Forced, /*PoolThreads=*/4, Input),
      Baseline, std::string(GetParam()) + "/exec-threads/forced4");

  // And the annotated plan still computes the network function.
  AnalyticCostProvider RefCosts(library(), MachineProfile::haswell());
  NetworkPlan Reference = referencePlan(*Net, library(), RefCosts);
  expectOutputsClose(Baseline,
                     runPlanOutputsAtThreads(*Net, Reference, 1, Input),
                     std::string(GetParam()) + "/exec-threads/vs-reference");
}

INSTANTIATE_TEST_SUITE_P(Models, ThreadsDiff,
                         ::testing::Values("alexnet", "resnet18", "mobilenet"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===----------------------------------------------------------------------===//
// 3. All three backends, brute force included, on a reduced instance.
//===----------------------------------------------------------------------===//

/// A residual+depthwise net small enough (with a reduced library) for
/// exhaustive enumeration: one depthwise block with an identity skip, one
/// projected conv skip, global pooling and a classifier.
NetworkGraph tinyResidual() {
  NetworkGraph G("tiny-residual");
  NetworkGraph::NodeId In = G.addInput("data", {4, 12, 12});
  NetworkGraph::NodeId Dw =
      G.addLayer(Layer::depthwiseConv("dw", 3, 1, 1), {In});
  NetworkGraph::NodeId Sum1 = G.addLayer(Layer::add("add1"), {Dw, In});
  NetworkGraph::NodeId Conv =
      G.addLayer(Layer::conv("conv", 4, 3, 1, 1), {Sum1});
  NetworkGraph::NodeId Sum2 = G.addLayer(Layer::add("add2"), {Conv, Sum1});
  NetworkGraph::NodeId Gap = G.addLayer(Layer::globalAvgPool("gap"), {Sum2});
  NetworkGraph::NodeId Fc = G.addLayer(Layer::fullyConnected("fc", 5), {Gap});
  G.addLayer(Layer::softmax("prob"), {Fc});
  return G;
}

TEST(BackendDiff, AllThreeBackendsAgreeOnResidualDepthwiseNet) {
  // sum2d + the depthwise family keeps the assignment space within the
  // brute-force bound while exercising both costed kinds.
  PrimitiveLibrary Lib;
  registerSum2D(Lib);
  registerDepthwiseFamily(Lib);
  NetworkGraph Net = tinyResidual();
  AnalyticCostProvider Costs(Lib, MachineProfile::haswell());

  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D Input(Sh.C, Sh.H, Sh.W, Layout::CHW);
  Input.fillRandom(31);
  NetworkPlan Reference = referencePlan(Net, Lib, Costs);
  PlanConfig Plain{"reduction", false, false};
  std::vector<Tensor3D> Expected =
      runPlanOutputs(Net, Reference, Lib, Plain, Input);

  double FirstCost = 0.0;
  for (const char *Solver : {"reduction", "bb", "brute"}) {
    EngineOptions EOpts;
    EOpts.Solver = Solver;
    Engine Eng(Lib, Costs, EOpts);
    ASSERT_LE(Eng.formulate(Net).G.assignmentSpace(),
              EOpts.SolverOptions.MaxBruteForceAssignments)
        << "reduced instance must stay brute-force enumerable";
    SelectionResult R = Eng.optimize(Net);
    ASSERT_FALSE(R.Plan.empty()) << Solver;
    ASSERT_TRUE(isLegalized(R.Plan, Net)) << Solver;
    EXPECT_TRUE(R.Solver.ProvablyOptimal) << Solver;
    if (Solver == std::string("reduction"))
      FirstCost = R.ModelledCostMs;
    else
      EXPECT_NEAR(R.ModelledCostMs, FirstCost, 1e-9 + 1e-9 * FirstCost)
          << Solver << " found a different optimum";

    std::vector<Tensor3D> Baseline =
        runPlanOutputs(Net, R.Plan, Lib, Plain, Input);
    expectOutputsClose(Baseline, Expected, Solver);
    for (const PlanConfig &Config : planConfigs({Solver}))
      expectOutputsBitIdentical(
          runPlanOutputs(Net, R.Plan, Lib, Config, Input), Baseline,
          Config.describe());
  }
}

//===----------------------------------------------------------------------===//
// 4. The batched-serving axis: responses from the dynamic-batching server
//    (serve/Server.h) must be bit-identical to the sequential Executor on
//    every (batch size x worker count) point, independent of how the
//    concurrent submitters' arrivals interleave -- batching is a
//    scheduling decision, never a numerics decision.
//===----------------------------------------------------------------------===//

class BatchedServeDiff : public ::testing::TestWithParam<const char *> {};

TEST_P(BatchedServeDiff, BatchedResponsesBitIdenticalToSequentialExecutor) {
  std::optional<NetworkGraph> Net = buildModel(GetParam(), /*Scale=*/0.1);
  ASSERT_TRUE(Net.has_value());
  AnalyticCostProvider Costs(library(), MachineProfile::haswell(), 1);
  EngineOptions EOpts;
  EOpts.AmortizeWeightTransforms = true; // the serving-mode cost split
  Engine Eng(library(), Costs, EOpts);
  SelectionResult R = Eng.optimize(*Net);
  ASSERT_FALSE(R.Plan.empty());
  std::shared_ptr<const CompiledNet> CN = Eng.compile(*Net, R);
  ASSERT_NE(CN, nullptr);

  // Distinct inputs and the sequential Executor's output for each.
  const TensorShape &Sh = CN->graph().node(0).OutShape;
  std::vector<Tensor3D> Inputs;
  std::vector<Tensor3D> Reference;
  Executor Seq(CN->graph(), CN->plan(), library());
  for (unsigned I = 0; I < 4; ++I) {
    Tensor3D T(Sh.C, Sh.H, Sh.W, Layout::CHW);
    T.fillRandom(53 + I);
    Seq.run(T);
    const Tensor3D &O = Seq.networkOutput();
    Tensor3D Ref(O.channels(), O.height(), O.width(), O.layout());
    std::memcpy(Ref.data(), O.data(),
                static_cast<size_t>(O.size()) * sizeof(float));
    Reference.push_back(std::move(Ref));
    Inputs.push_back(std::move(T));
  }

  const unsigned RequestsPerSubmitter = 8;
  for (unsigned MaxBatch : {1u, 2u, 4u}) {
    for (unsigned Workers : {1u, 4u}) {
      serve::ServerOptions SOpts;
      SOpts.Batch.MaxBatch = MaxBatch;
      SOpts.Batch.MaxDelayNs = 200 * serve::nsPerUs;
      SOpts.Batch.MaxQueue = 64;
      SOpts.Workers = Workers;
      serve::Server Srv(CN, SOpts);

      // Two concurrent submitters produce a nondeterministic arrival
      // interleaving; each records which input every ticket carried so
      // the response can be checked against the right reference.
      std::vector<std::vector<serve::SubmitTicket>> Tickets(2);
      std::vector<std::vector<unsigned>> Chose(2);
      std::vector<std::thread> Submitters;
      for (unsigned S = 0; S < 2; ++S)
        Submitters.emplace_back([&, S] {
          for (unsigned I = 0; I < RequestsPerSubmitter; ++I) {
            unsigned Idx = (S * RequestsPerSubmitter + I) %
                           static_cast<unsigned>(Inputs.size());
            Chose[S].push_back(Idx);
            Tickets[S].push_back(Srv.submit(Inputs[Idx]));
          }
        });
      for (std::thread &T : Submitters)
        T.join();
      Srv.shutdown(); // drains: every admitted request completes

      std::string Point = std::string(GetParam()) + "/batch" +
                          std::to_string(MaxBatch) + "x" +
                          std::to_string(Workers) + "w";
      for (unsigned S = 0; S < 2; ++S)
        for (unsigned I = 0; I < RequestsPerSubmitter; ++I) {
          serve::ServeResponse Resp = Tickets[S][I].Response.get();
          ASSERT_TRUE(Resp.ok())
              << Point << ": " << serve::serveStatusName(Resp.Status);
          EXPECT_LE(Resp.BatchSize, MaxBatch) << Point;
          EXPECT_EQ(maxAbsDifference(Resp.Output, Reference[Chose[S][I]]),
                    0.0f)
              << Point << " submitter " << S << " request " << I;
        }
      EXPECT_EQ(Srv.stats().RequestsExecuted, 2u * RequestsPerSubmitter)
          << Point;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, BatchedServeDiff,
                         ::testing::Values("resnet18", "mobilenet"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
