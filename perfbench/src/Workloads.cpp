//===- perfbench/src/Workloads.cpp - The three benchmark workloads --------===//
//
// Part of primsel's benchmark. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets up the serving stack several times (setup_s is the
/// median), computes reference outputs outside every timed interval, runs
/// its timed phase and checks every output against the references. Traced
/// runs then break the time down layer by layer: spans around each call
/// into the library, a replay of every plan step in isolation, and the
/// counters the public API exposes.
///
/// Only the paths the repository keeps as its serving stack are used:
/// Engine::optimize / Engine::compile, ExecutionContext::run, and
/// serve::FleetServer over a ModelRegistry (one model is a fleet of one).
/// The batch ladder and the JIT stay off.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Stats.h"

#include "cost/AnalyticModel.h"
#include "cost/MachineProfile.h"
#include "engine/Engine.h"
#include "gemm/MicroKernel.h"
#include "nn/Models.h"
#include "pbqp/SolverBackend.h"
#include "serve/Fleet.h"
#include "tensor/Transform.h"
#include "transforms/Pass.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <thread>

using namespace primsel;

namespace perfbench {
namespace {

/// Every model runs at the CLI's default scale.
constexpr double ModelScale = 0.25;
/// The latency limit on p90, for slo_rate_rps.
constexpr double SloMs = 50.0;
/// Distinct seeded inputs per model; requests pick among them.
constexpr unsigned InputsPerModel = 8;
/// Whole-network tolerance against the Sum2D reference plan (the
/// differential test suite's networkTolerance()).
constexpr float NetworkTolerance = 5e-2f;
/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 9;
/// mobilenet-poisson's fixed rate, well under half the lane's capacity on a
/// 4-core host (about 250 req/s): at 125 req/s and above, p90 doubled in
/// runs where the shared host ran 20% slower.
constexpr double MobilenetRate = 100.0;
/// The slo_rate_rps ladder above the fixed phase, which is its first rung.
constexpr double LadderStart = 150.0;
constexpr double LadderStep = 25.0;
constexpr double LadderTop = 500.0;
/// Equal time windows per timed phase. The gated latencies (and the
/// closed loop's rates) are medians over the windows, so a host stall that
/// hits one window of a run leaves the run's figure alone.
constexpr unsigned Windows = 5;
/// Replays per plan step and runs per isolated-run median (traced runs).
constexpr unsigned ReplayReps = 9;
constexpr double MiB = 1024.0 * 1024.0;

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t mix(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double peakRssMiB() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double msSince(int64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e6;
}

/// The CLI's --exec-threads N candidate set: 1, the powers of two below N,
/// and N.
std::vector<unsigned> execThreadCandidates(unsigned Max) {
  std::vector<unsigned> C{1};
  for (unsigned T = 2; T < Max; T *= 2)
    C.push_back(T);
  if (Max > 1)
    C.push_back(Max);
  return C;
}

std::vector<float> chwData(const Tensor3D &T) {
  Tensor3D C = convertToLayout(T, Layout::CHW);
  return std::vector<float>(C.data(), C.data() + C.size());
}

bool sameBits(const std::vector<float> &Ref, const Tensor3D &Out) {
  std::vector<float> O = chwData(Out);
  return O.size() == Ref.size() &&
         std::memcmp(O.data(), Ref.data(), O.size() * sizeof(float)) == 0;
}

/// A model a workload serves, with its seeded inputs and their reference
/// outputs.
struct ModelSpec {
  std::string Name;
  NetworkGraph Net;
  double Popularity = 1.0;
  std::vector<Tensor3D> Inputs;
  std::vector<std::vector<float>> Refs;

  ModelSpec(const std::string &N, double Pop, uint64_t Seed)
      : Name(N), Net(*buildModel(N, ModelScale)), Popularity(Pop) {
    const TensorShape &Sh = Net.node(0).OutShape;
    for (unsigned I = 0; I < InputsPerModel; ++I) {
      Inputs.emplace_back(Sh.C, Sh.H, Sh.W, Layout::CHW);
      Inputs.back().fillRandom(mix(Seed, 100 + I));
    }
  }
};

/// The oracle of every execution mode: a fresh single-threaded context on
/// the same artifact.
void computeRefs(ModelSpec &M, const std::shared_ptr<const CompiledNet> &CN) {
  std::unique_ptr<ExecutionContext> Ctx = CN->newContext();
  M.Refs.clear();
  for (const Tensor3D &In : M.Inputs) {
    Ctx->run(In);
    M.Refs.push_back(chwData(Ctx->networkOutput()));
  }
}

/// Network output and pre-softmax scores of \p CN on \p In, in CHW.
struct Outputs {
  std::vector<float> Output, Scores;
};

Outputs outputsOf(const std::shared_ptr<const CompiledNet> &CN,
                  const Tensor3D &In) {
  std::unique_ptr<ExecutionContext> Ctx = CN->newContext(); // no arena
  Ctx->run(In);
  const NetworkGraph &G = CN->graph();
  NetworkGraph::NodeId Out = G.outputs().front();
  NetworkGraph::NodeId Pre = Out;
  if (G.node(Out).L.Kind == LayerKind::Softmax)
    Pre = G.node(Out).Inputs[0];
  return {chwData(Ctx->outputOf(Out)), chwData(Ctx->outputOf(Pre))};
}

/// Largest |A - B| (infinite on a size mismatch) and largest |B|.
std::pair<float, float> maxDiff(const std::vector<float> &A,
                                const std::vector<float> &B) {
  float Diff = A.size() == B.size() ? 0.0f : INFINITY, Mag = 0.0f;
  for (size_t I = 0; I < A.size() && I < B.size(); ++I) {
    Diff = std::max(Diff, std::fabs(A[I] - B[I]));
    Mag = std::max(Mag, std::fabs(B[I]));
  }
  return {Diff, Mag};
}

/// The served plan against the Sum2D baseline plan, which uses independent
/// routines, on input 0. The network output must agree within the
/// differential suite's network tolerance. The softmax that ends every zoo
/// model saturates, which hides most differences, so the pre-softmax scores
/// must agree too, within the same tolerance relative to their magnitude
/// (random weights drive them far from 1). Prints and returns false on a
/// mismatch.
bool checkAgainstSum2D(Engine &Eng, const ModelSpec &M,
                       const std::shared_ptr<const CompiledNet> &Served) {
  NetworkPlan Plan = Eng.planFor(Strategy::Sum2D, M.Net);
  Outputs Base = outputsOf(CompiledNet::build(M.Net, Plan, Eng.library()),
                           M.Inputs[0]);
  Outputs Got = outputsOf(Served, M.Inputs[0]);
  float OutDiff = maxDiff(Got.Output, Base.Output).first;
  auto [ScoreDiff, ScoreMag] = maxDiff(Got.Scores, Base.Scores);
  float ScoreRel = ScoreDiff / std::max(1.0f, ScoreMag);
  std::printf("# sum2d check %s: output max |diff| %.3g, scores max |diff| "
              "%.3g of %.3g (relative %.3g); tolerance %.3g\n",
              M.Name.c_str(), static_cast<double>(OutDiff),
              static_cast<double>(ScoreDiff), static_cast<double>(ScoreMag),
              static_cast<double>(ScoreRel),
              static_cast<double>(NetworkTolerance));
  return OutDiff <= NetworkTolerance && ScoreRel <= NetworkTolerance;
}

/// One selection stack: library, analytic cost provider, the counting
/// wrapper the engine queries, and the engine. Members are destroyed in reverse,
/// so the engine goes before what it borrows.
struct Stack {
  std::unique_ptr<PrimitiveLibrary> Lib;
  std::unique_ptr<CostProvider> Raw;
  std::unique_ptr<CountingCosts> Costs;
  std::unique_ptr<Engine> Eng;
};

Stack makeStack(const std::vector<unsigned> &Candidates, bool CachePlans) {
  Stack S;
  S.Lib = std::make_unique<PrimitiveLibrary>(buildFullLibrary());
  S.Raw = std::make_unique<AnalyticCostProvider>(
      *S.Lib, MachineProfile::detect(), 1);
  S.Costs = std::make_unique<CountingCosts>(*S.Raw);
  EngineOptions E;
  E.Threads = 1;
  E.Passes = transforms::PassPipeline::defaultPassNames();
  E.AmortizeWeightTransforms = true;
  E.ExecThreadCandidates = Candidates;
  E.CachePlans = CachePlans;
  S.Eng = std::make_unique<Engine>(*S.Lib, *S.Costs, E);
  return S;
}

/// Cost-layer counters of a stack, read at the end of set-up.
struct CostCounts {
  double Queries = 0.0, RawEvals = 0.0, QueryMs = 0.0;
};

CostCounts costCounts(const Stack &S) {
  CostCounts C;
  if (const CostCacheStats *Cache = S.Eng->cacheStats())
    C.Queries = static_cast<double>(Cache->queries());
  C.RawEvals = static_cast<double>(S.Costs->calls());
  C.QueryMs = S.Costs->millis();
  return C;
}

/// Every per-layer metric, filled by whichever workload applies and
/// emitted in one fixed order (zero where a layer is idle), so each traced
/// run reports the same names.
struct Layers {
  double OptimizeMs = 0, CompileMs = 0, PreparedMiB = 0, PlanCacheHitShare = 0;
  CostCounts Cost;
  double ModelRatio = 0, NodeRatioMax = 0;
  double FormulateMs = 0, TransformSteps = 0, SolveMs = 0, PbqpNodes = 0,
         PbqpEdges = 0;
  RunBreakdown Run;
  double OverheadMs = 0;
  std::vector<NodeRow> Rows;
  double GemmGflops = 0, PoolSpeedup = 0;
  double QueueP50 = 0, QueueP90 = 0, ExecP50 = 0, MeanBatch = 0,
         FullBatchShare = 0, MaxQueueDepth = 0, Rejected = 0;
  double Evictions = 0, Compiles = 0, Solves = 0, PeakResidentMiB = 0,
         Unavailable = 0;
  double LagP99 = 0, Sent = 0, TraceOverheadMs = 0, FailedShare = 0;
};

void emitLayers(const Layers &L, Report &R) {
  R.layer("engine.optimize_ms", "ms", L.OptimizeMs);
  R.layer("engine.compile_ms", "ms", L.CompileMs);
  R.layer("engine.prepared_mib", "MiB", L.PreparedMiB);
  R.layer("engine.plan_cache_hit_share", "share", L.PlanCacheHitShare);
  R.layer("cost.queries", "count", L.Cost.Queries);
  R.layer("cost.raw_evals", "count", L.Cost.RawEvals);
  R.layer("cost.query_ms", "ms", L.Cost.QueryMs);
  R.layer("cost.model_ratio", "x", L.ModelRatio);
  R.layer("cost.node_ratio_max", "x", L.NodeRatioMax);
  R.layer("core.formulate_ms", "ms", L.FormulateMs);
  R.layer("core.transform_steps", "count", L.TransformSteps);
  R.layer("pbqp.solve_ms", "ms", L.SolveMs);
  R.layer("pbqp.nodes", "count", L.PbqpNodes);
  R.layer("pbqp.edges", "count", L.PbqpEdges);
  R.layer("runtime.run_ms", "ms", L.Run.RunMs);
  R.layer("runtime.conv_ms", "ms", L.Run.ConvMs);
  R.layer("runtime.other_ms", "ms", L.Run.OtherMs);
  R.layer("runtime.overhead_ms", "ms", L.OverheadMs);
  for (unsigned F = 0; F < NumConvFamilies; ++F) {
    std::string Fam = convFamilyName(static_cast<ConvFamily>(F));
    double Ms = 0.0, Flops = 0.0;
    for (const NodeRow &Row : L.Rows)
      if (Row.IsConv && Row.Family == Fam) {
        Ms += Row.MeasuredMs;
        Flops += Row.Flops;
      }
    R.layer("primitives." + Fam + ".ms", "ms", Ms);
    R.layer("primitives." + Fam + ".gflops", "GFLOP/s",
            Ms > 0.0 ? Flops / (Ms * 1e6) : 0.0);
  }
  R.layer("gemm.gflops", "GFLOP/s", L.GemmGflops);
  double TransformMs = 0.0;
  for (const NodeRow &Row : L.Rows)
    if (!Row.IsConv)
      TransformMs += Row.MeasuredMs;
  R.layer("tensor.transform_ms", "ms", TransformMs);
  R.layer("support.pool_speedup", "x", L.PoolSpeedup);
  R.layer("serve.queue_p50_ms", "ms", L.QueueP50);
  R.layer("serve.queue_p90_ms", "ms", L.QueueP90);
  R.layer("serve.exec_p50_ms", "ms", L.ExecP50);
  R.layer("serve.mean_batch", "requests", L.MeanBatch);
  R.layer("serve.full_batch_share", "share", L.FullBatchShare);
  R.layer("serve.max_queue_depth", "count", L.MaxQueueDepth);
  R.layer("serve.rejected", "count", L.Rejected);
  R.layer("fleet.evictions", "count", L.Evictions);
  R.layer("fleet.compiles", "count", L.Compiles);
  R.layer("fleet.solves", "count", L.Solves);
  R.layer("fleet.peak_resident_mib", "MiB", L.PeakResidentMiB);
  R.layer("fleet.unavailable", "count", L.Unavailable);
  R.layer("loadgen.lag_p99_ms", "ms", L.LagP99);
  R.layer("loadgen.sent", "count", L.Sent);
  R.layer("trace.overhead_ms", "ms", L.TraceOverheadMs);
  R.layer("failed_share", "share", L.FailedShare);
}

/// p50 and p90 of each window of a phase's (seconds, latency ms) samples,
/// each the median over the windows.
struct WindowedLatency {
  double P50 = 0.0, P90 = 0.0;
};

WindowedLatency windowedLatency(
    const std::vector<std::pair<double, double>> &Timed, double SpanS) {
  std::vector<std::vector<double>> W = splitWindows(Timed, SpanS, Windows);
  return {windowMedian(W, [](const std::vector<double> &V) {
            return summarize(V).P50;
          }),
          windowMedian(W, [](const std::vector<double> &V) {
            return summarize(V).P90;
          })};
}

/// \p PeakRssMiB is read when the timed phase ends, before the Sum2D
/// check builds its unpacked reference artifacts.
void emitEndToEnd(Report &R, double SetupS, const WindowedLatency &Lat,
                  double Throughput, double SloRate, double PeakRssMiB) {
  R.e2e("setup_s", "s", SetupS);
  R.e2e("lat_p50_ms", "ms", Lat.P50);
  R.e2e("lat_p90_ms", "ms", Lat.P90);
  R.e2e("throughput_rps", "1/s", Throughput);
  R.e2e("slo_rate_rps", "1/s", SloRate);
  R.e2e("peak_rss_mib", "MiB", PeakRssMiB);
}

void printLatency(const char *What, const Summary &S) {
  std::printf("# %s latency: n=%zu p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, "
              "p99.9 %.3f ms\n",
              What, S.Count, S.P50, S.P90, S.P99, S.P999);
}

void printWindowed(const WindowedLatency &W) {
  std::printf("# median over %u windows: p50 %.3f ms, p90 %.3f ms\n",
              Windows, W.P50, W.P90);
}

/// Print the per-node table of \p L.Rows and fill the metrics derived from
/// it. \p L.Run is the primary model's isolated run and
/// \p PrimaryModelledMs the per-run cost the solver minimized for it.
void finishReplay(Layers &L, const std::string &Primary,
                  double PrimaryModelledMs) {
  std::printf("# node replay (median of %u isolated runs per step)\n",
              ReplayReps);
  std::printf("# %-10s %4s %-34s %3s %11s %11s %7s %8s\n", "model", "node",
              "routine", "thr", "modelled_ms", "measured_ms", "ratio",
              "GFLOP/s");
  double PrimarySteps = 0.0;
  for (const NodeRow &Row : L.Rows) {
    double Ratio = Row.ModelledMs > 0.0 ? Row.MeasuredMs / Row.ModelledMs : 0.0;
    std::printf("# %-10s %4u %-34s %3u %11.4f %11.4f %7.2f %8.2f\n",
                Row.Model.c_str(), Row.Node, Row.Routine.c_str(), Row.Threads,
                Row.ModelledMs, Row.MeasuredMs, Ratio,
                Row.Flops > 0.0 ? Row.Flops / (Row.MeasuredMs * 1e6) : 0.0);
    if (Row.IsConv && Row.ModelledMs > 0.0)
      L.NodeRatioMax = std::max(L.NodeRatioMax, Ratio);
    if (Row.Model == Primary)
      PrimarySteps += Row.MeasuredMs;
  }
  L.OverheadMs = L.Run.RunMs - PrimarySteps - L.Run.OtherMs;
  L.ModelRatio =
      PrimaryModelledMs > 0.0 ? L.Run.RunMs / PrimaryModelledMs : 0.0;
  L.GemmGflops = gemmProbeGflops(L.Rows, ReplayReps);
  std::printf("# %s: ExecutionContext::run %.3f ms = replayed steps %.3f ms + "
              "dummy layers %.3f ms + overhead %.3f ms; modelled %.3f ms\n",
              Primary.c_str(), L.Run.RunMs, PrimarySteps, L.Run.OtherMs,
              L.OverheadMs, PrimaryModelledMs);
}

/// support.pool_speedup: one artifact run at 1 thread versus the host's
/// thread count.
double poolSpeedup(const std::shared_ptr<const CompiledNet> &CN,
                   const Tensor3D &Input) {
  ExecutionContextOptions One, All;
  One.UseArena = All.UseArena = true;
  All.Threads = hostThreads();
  double T1 = isolatedRuns(CN, One, Input, 5).RunMs;
  double TN = isolatedRuns(CN, All, Input, 5).RunMs;
  return TN > 0.0 ? T1 / TN : 0.0;
}

/// Formulate and solve \p Net once more on \p Eng (its cost cache is warm),
/// timing the two halves of selection separately.
void probeFormulation(Engine &Eng, const NetworkGraph &Net, Tracer &T,
                      Layers &L) {
  int64_t Start = nowNs();
  PBQPFormulation F;
  {
    ScopedSpan S(T, "Engine::formulate");
    F = Eng.formulate(Net);
  }
  L.FormulateMs += msSince(Start);
  std::unique_ptr<pbqp::SolverBackend> Backend =
      pbqp::createSolverBackend(Eng.options().Solver);
  Start = nowNs();
  {
    ScopedSpan S(T, "SolverBackend::solve");
    Backend->solve(F.G, Eng.options().SolverOptions);
  }
  L.SolveMs += msSince(Start);
  L.PbqpNodes += F.G.numNodes();
  L.PbqpEdges += F.G.numEdges();
}

//===-- Closed loop: resnet18-stream --------------------------------------===//

struct ClosedSetup {
  Stack St;
  SelectionResult Sel;
  std::shared_ptr<const CompiledNet> CN;
  std::unique_ptr<ExecutionContext> Ctx;
  double OptimizeMs = 0.0, CompileMs = 0.0, Seconds = 0.0;
  CostCounts Cost;
};

std::unique_ptr<ClosedSetup> setupClosed(const NetworkGraph &Net,
                                         const std::vector<unsigned> &Cands,
                                         unsigned CtxThreads, Tracer &T) {
  int64_t Start = nowNs();
  ScopedSpan Root(T, "setup");
  auto S = std::make_unique<ClosedSetup>();
  S->St = makeStack(Cands, /*CachePlans=*/false);
  int64_t Phase = nowNs();
  {
    ScopedSpan Span(T, "Engine::optimize", Root.id());
    S->Sel = S->St.Eng->optimize(Net);
  }
  S->OptimizeMs = msSince(Phase);
  Phase = nowNs();
  {
    ScopedSpan Span(T, "Engine::compile", Root.id());
    S->CN = S->St.Eng->compile(Net, S->Sel);
  }
  S->CompileMs = msSince(Phase);
  if (!S->CN)
    return nullptr;
  ExecutionContextOptions CtxOpts;
  CtxOpts.Threads = CtxThreads;
  CtxOpts.UseArena = true;
  S->Ctx = S->CN->newContext(CtxOpts);
  S->Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  S->Cost = costCounts(S->St);
  return S;
}

struct ClosedPhase {
  std::vector<double> LatMs;
  /// (completion, seconds from the phase start; latency ms) per request.
  std::vector<std::pair<double, double>> Timed;
  uint64_t Attempted = 0, Failed = 0;
};

/// One client calling ExecutionContext::run back to back for \p Seconds;
/// each output is checked bit for bit after its call is timed.
ClosedPhase closedPhase(ExecutionContext &Ctx, const ModelSpec &M,
                        double Seconds, uint64_t Seed, Tracer &T) {
  std::mt19937_64 Pick(Seed);
  ClosedPhase P;
  int64_t Start = nowNs();
  int64_t End = Start + static_cast<int64_t>(Seconds * 1e9);
  int64_t Now = Start;
  while (Now < End) {
    size_t I = Pick() % M.Inputs.size();
    uint64_t Req = ++P.Attempted;
    int Span = T.begin("ExecutionContext::run", -1, Req);
    int64_t Sent = nowNs();
    Ctx.run(M.Inputs[I]);
    Now = nowNs();
    T.end(Span);
    double Lat = static_cast<double>(Now - Sent) / 1e6;
    if (!sameBits(M.Refs[I], Ctx.networkOutput())) {
      ++P.Failed;
      continue;
    }
    P.LatMs.push_back(Lat);
    P.Timed.push_back({static_cast<double>(Now - Start) / 1e9, Lat});
  }
  return P;
}

bool runClosed(const RunOptions &Opts, Report &R) {
  Tracer T(Opts.Trace);
  unsigned CtxThreads = hostThreads();
  std::vector<unsigned> Cands = execThreadCandidates(CtxThreads);
  ModelSpec M("resnet18", 1.0, Opts.Seed);

  std::vector<double> SetupS;
  std::unique_ptr<ClosedSetup> S;
  for (unsigned I = 0; I < SetupReps; ++I) {
    S.reset(); // tear the previous set-up down before timing the next
    S = setupClosed(M.Net, Cands, CtxThreads, T);
    if (!S) {
      std::fprintf(stderr, "error: compiling resnet18 failed\n");
      return false;
    }
    SetupS.push_back(S->Seconds);
    std::printf("# setup %u: %.4f s (optimize %.2f ms, compile %.2f ms)\n", I,
                S->Seconds, S->OptimizeMs, S->CompileMs);
  }
  computeRefs(M, S->CN);
  std::printf("# plan: modelled %.3f ms/inference, %u steps (%u transforms)\n",
              S->Sel.ModelledPerRunMs,
              static_cast<unsigned>(S->CN->program().steps().size()),
              S->CN->program().numTransformSteps());

  for (unsigned I = 0; I < 2; ++I) // warm caches before timing
    S->Ctx->run(M.Inputs[I]);
  ClosedPhase P = closedPhase(*S->Ctx, M, Opts.Seconds, mix(Opts.Seed, 1), T);
  R.Attempted = P.Attempted;
  R.Failed = P.Failed;
  Summary Lat = summarize(P.LatMs);
  printLatency("request", Lat);
  WindowedLatency WLat = windowedLatency(P.Timed, Opts.Seconds);
  printWindowed(WLat);
  double PeakRss = peakRssMiB();
  R.Correct = checkAgainstSum2D(*S->St.Eng, M, S->CN);

  if (!Opts.Trace) {
    // A closed loop's rates follow its latency, so they are per-window
    // medians too: requests (and those within the limit) per second.
    std::vector<std::vector<double>> W =
        splitWindows(P.Timed, Opts.Seconds, Windows);
    double WindowS = Opts.Seconds / Windows;
    double Throughput = windowMedian(W, [&](const std::vector<double> &V) {
      return static_cast<double>(V.size()) / WindowS;
    });
    double Goodput = windowMedian(W, [&](const std::vector<double> &V) {
      return static_cast<double>(
                 std::count_if(V.begin(), V.end(),
                               [](double L) { return L <= SloMs; })) /
             WindowS;
    });
    emitEndToEnd(R, median(SetupS), WLat, Throughput, Goodput, PeakRss);
    return true;
  }

  Layers L;
  Tracer Off(false);
  Summary Untraced =
      summarize(closedPhase(*S->Ctx, M, Opts.Seconds / 2, mix(Opts.Seed, 3),
                            Off)
                    .LatMs);
  L.TraceOverheadMs = Lat.P50 - Untraced.P50;
  std::printf("# tracing: %zu spans; traced p50 %.3f ms vs untraced %.3f ms\n",
              T.size(), Lat.P50, Untraced.P50);
  L.OptimizeMs = S->OptimizeMs;
  L.CompileMs = S->CompileMs;
  L.PreparedMiB = static_cast<double>(S->CN->preparedBytes()) / MiB;
  L.PlanCacheHitShare = S->Sel.PlanCacheHit ? 1.0 : 0.0;
  L.Cost = S->Cost;
  probeFormulation(*S->St.Eng, M.Net, T, L);
  L.TransformSteps = S->CN->program().numTransformSteps();
  L.Run = isolatedRuns(S->CN, S->Ctx->options(), M.Inputs[0], ReplayReps);
  L.Rows = replayPlan(M.Name, *S->CN, S->St.Eng->costs(), CtxThreads,
                      ReplayReps);
  finishReplay(L, M.Name, S->Sel.ModelledPerRunMs);
  L.PoolSpeedup = poolSpeedup(S->CN, M.Inputs[0]);
  L.Sent = static_cast<double>(P.Attempted);
  L.FailedShare = static_cast<double>(P.Failed) /
                  static_cast<double>(std::max<uint64_t>(1, P.Attempted));
  emitLayers(L, R);
  if (!Opts.TracePath.empty() && !T.write(Opts.TracePath))
    std::fprintf(stderr, "warning: could not write %s\n",
                 Opts.TracePath.c_str());
  return true;
}

//===-- Open loop: mobilenet-poisson, fleet-churn -------------------------===//

struct FleetConfig {
  std::vector<std::pair<std::string, double>> Models; ///< name, popularity
  double Rate = 0.0;          ///< fixed-phase arrivals per second
  double BudgetMiB = 0.0;     ///< 0 = unlimited
  unsigned MaxBatch = 1;      ///< batch cap per lane
  unsigned SlotThreads = 1;   ///< slot pool width per lane
  bool Ladder = false;        ///< run the slo_rate_rps ladder
};

struct FleetSetup {
  Stack St;
  std::unique_ptr<serve::ModelRegistry> Reg;
  std::unique_ptr<serve::FleetServer> Srv;
  double AcquireMs = 0.0, Seconds = 0.0;
  CostCounts Cost;
};

std::unique_ptr<FleetSetup> setupFleet(const std::vector<ModelSpec> &Models,
                                       const FleetConfig &C, Tracer &T) {
  int64_t Start = nowNs();
  ScopedSpan Root(T, "setup");
  auto S = std::make_unique<FleetSetup>();
  S->St = makeStack({1}, /*CachePlans=*/true);
  serve::RegistryOptions RO;
  RO.MemBudgetBytes = static_cast<size_t>(C.BudgetMiB * MiB);
  RO.ArenaSlabsPerModel = C.MaxBatch;
  S->Reg = std::make_unique<serve::ModelRegistry>(*S->St.Eng, RO);
  for (const ModelSpec &M : Models)
    S->Reg->addModel(M.Name, M.Net);
  // Least popular first, so the hot model is resident when traffic starts.
  int64_t Phase = nowNs();
  for (auto It = Models.rbegin(); It != Models.rend(); ++It) {
    ScopedSpan Span(T, "ModelRegistry::acquire", Root.id());
    if (!S->Reg->acquire(It->Name)) {
      std::fprintf(stderr, "error: cannot acquire %s\n", It->Name.c_str());
      return nullptr;
    }
  }
  S->AcquireMs = msSince(Phase);
  serve::FleetOptions FO;
  FO.Batch.MaxBatch = C.MaxBatch;
  FO.Batch.MaxDelayNs = serve::nsPerMs;
  FO.Batch.MaxQueue = 4096; // overload shows as latency, not rejections
  FO.WorkersPerModel = 1;
  FO.BatchThreads = C.SlotThreads;
  FO.UseArena = true;
  S->Srv = std::make_unique<serve::FleetServer>(*S->Reg, FO);
  S->Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  S->Cost = costCounts(S->St);
  return S;
}

struct OpenPhase {
  std::vector<double> LatMs, LagMs, QueueMs, ExecMs;
  /// (due, seconds from the phase start; latency ms) per Ok request.
  std::vector<std::pair<double, double>> Timed;
  std::vector<std::vector<double>> LatMsByModel;
  uint64_t Attempted = 0, Failed = 0, WithinSlo = 0;
  double ElapsedS = 0.0;
};

/// The benchmark's own open-loop generator: one thread sends each request
/// at its due time from a seeded Poisson schedule, and each latency runs
/// from the due time to the response, so generator stalls count.
OpenPhase openPhase(serve::FleetServer &Srv,
                    const std::vector<ModelSpec> &Models, double Rate,
                    double Seconds, uint64_t Seed, Tracer &T,
                    uint64_t &NextRequest) {
  std::vector<int64_t> Due = arrivalSchedule(mix(Seed, 1), Rate, Seconds);
  // Model picks: each model's share of the requests is fixed by its
  // popularity and only the order is drawn, so every seed offers the same
  // number of cold-model arrivals.
  double Total = 0.0;
  for (const ModelSpec &M : Models)
    Total += M.Popularity;
  std::vector<size_t> Picks;
  for (size_t I = 0; I < Models.size(); ++I) {
    size_t Count = I + 1 == Models.size()
                       ? Due.size() - Picks.size()
                       : static_cast<size_t>(std::llround(
                             Models[I].Popularity / Total *
                             static_cast<double>(Due.size())));
    Picks.insert(Picks.end(), std::min(Count, Due.size() - Picks.size()), I);
  }
  std::mt19937_64 Pick(mix(Seed, 2));
  std::shuffle(Picks.begin(), Picks.end(), Pick);

  struct Pending {
    int64_t DueNs, SendNs;
    uint64_t Request;
    int Span;
    size_t Model, Input;
    std::future<serve::ServeResponse> Response;
  };
  std::vector<Pending> Sent;
  Sent.reserve(Due.size());
  int64_t Start = nowNs() + 2 * serve::nsPerMs;
  for (size_t R = 0; R < Due.size(); ++R) {
    size_t Model = Picks[R];
    size_t Input = Pick() % Models[Model].Inputs.size();
    int64_t DueNs = Start + Due[R];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(DueNs))));
    int64_t SendNs = nowNs();
    uint64_t Req = ++NextRequest;
    int Span = T.begin("FleetServer::submit", -1, Req);
    serve::SubmitTicket Ticket =
        Srv.submit(Models[Model].Name, Models[Model].Inputs[Input]);
    T.end(Span);
    Sent.push_back({DueNs, SendNs, Req, Span, Model, Input,
                    std::move(Ticket.Response)});
  }
  OpenPhase P;
  P.LatMsByModel.resize(Models.size());
  int64_t LastDone = Start;
  for (Pending &Q : Sent) {
    serve::ServeResponse Resp = Q.Response.get();
    ++P.Attempted;
    P.LagMs.push_back(static_cast<double>(Q.SendNs - Q.DueNs) / 1e6);
    if (!Resp.ok() || !sameBits(Models[Q.Model].Refs[Q.Input], Resp.Output)) {
      ++P.Failed;
      continue;
    }
    double Lat = dueLatencyMs(Q.DueNs, Q.SendNs, Resp.TotalNs);
    P.LatMs.push_back(Lat);
    P.Timed.push_back({static_cast<double>(Q.DueNs - Start) / 1e9, Lat});
    P.LatMsByModel[Q.Model].push_back(Lat);
    if (Lat <= SloMs)
      ++P.WithinSlo;
    P.QueueMs.push_back(Resp.queueMillis());
    P.ExecMs.push_back(Resp.totalMillis() - Resp.queueMillis());
    LastDone = std::max(LastDone, Q.SendNs + Resp.TotalNs);
    T.add("queue", Q.SendNs, Q.SendNs + Resp.QueueNs, Q.Span, Q.Request);
    T.add("execute", Q.SendNs + Resp.QueueNs, Q.SendNs + Resp.TotalNs, Q.Span,
          Q.Request);
  }
  P.ElapsedS = static_cast<double>(LastDone - Start) / 1e9;
  return P;
}

/// slo_rate_rps: the rate at which p90 first exceeds the limit on the fixed
/// ladder, the fixed phase (\p FirstP90 at \p FirstRate) being its first
/// rung. Each rung is judged on the per-window median p90 that lat_p90_ms
/// uses (a failed request fails the whole run), and the climb stops after
/// two rungs in a row over the limit. p90 need not rise with rate on a
/// noisy host, so the crossing is read from the rungs' monotone fit
/// (crossingRate), which one stalled or lucky rung does not move. A queue
/// that grows through a rung raises its later windows, and so the rung's
/// median once the growth spans most of them.
double sloLadder(serve::FleetServer &Srv, const std::vector<ModelSpec> &Models,
                 double FirstRate, double FirstP90, const RunOptions &Opts,
                 Report &R, uint64_t &NextRequest) {
  std::vector<double> Rates{FirstRate}, P90s{FirstP90};
  double StepSeconds = std::max(2.0, Opts.Seconds / 4);
  unsigned OverInARow = FirstP90 > SloMs ? 1 : 0;
  Tracer Off(false);
  for (double Rate = LadderStart; Rate <= LadderTop && OverInARow < 2;
       Rate += LadderStep) {
    OpenPhase P = openPhase(Srv, Models, Rate, StepSeconds,
                            mix(Opts.Seed, static_cast<uint64_t>(Rate)), Off,
                            NextRequest);
    R.Attempted += P.Attempted;
    R.Failed += P.Failed;
    double P90 = windowedLatency(P.Timed, StepSeconds).P90;
    Rates.push_back(Rate);
    P90s.push_back(P90);
    OverInARow = P90 > SloMs ? OverInARow + 1 : 0;
    std::printf("# ladder %.0f req/s: windowed p90 %.3f ms, %llu failed\n",
                Rate, P90, static_cast<unsigned long long>(P.Failed));
  }
  return crossingRate(Rates, P90s, SloMs);
}

struct LaneTotals {
  double Batches = 0, Requests = 0, Full = 0, MaxDepth = 0, Rejected = 0;
};

LaneTotals laneTotals(serve::FleetServer &Srv) {
  LaneTotals L;
  for (const std::string &Name : Srv.modelNames()) {
    serve::BatcherStats B = Srv.batcherStats(Name);
    serve::LaneStats S = Srv.laneStats(Name);
    L.Batches += static_cast<double>(B.Batches);
    L.Requests += static_cast<double>(B.BatchedRequests);
    L.Full += static_cast<double>(B.FullBatches);
    L.MaxDepth = std::max(L.MaxDepth, static_cast<double>(B.MaxQueueDepth));
    L.Rejected += static_cast<double>(B.RejectedQueueFull + B.RejectedDeadline +
                                      B.RejectedShutdown +
                                      S.UnavailableRequests);
  }
  return L;
}

bool runOpen(const RunOptions &Opts, const FleetConfig &C, Report &R) {
  Tracer T(Opts.Trace);
  std::vector<ModelSpec> Models;
  for (size_t I = 0; I < C.Models.size(); ++I)
    Models.emplace_back(C.Models[I].first, C.Models[I].second,
                        mix(Opts.Seed, 10 + I));

  std::vector<double> SetupS;
  std::unique_ptr<FleetSetup> S;
  for (unsigned I = 0; I < SetupReps; ++I) {
    S.reset(); // tear the previous set-up down before timing the next
    S = setupFleet(Models, C, T);
    if (!S)
      return false;
    SetupS.push_back(S->Seconds);
    std::printf("# setup %u: %.4f s (first acquires %.2f ms)\n", I,
                S->Seconds, S->AcquireMs);
  }
  serve::ModelRegistry &Reg = *S->Reg;
  double FleetMiB = 0.0;
  for (ModelSpec &M : Models) {
    std::shared_ptr<const CompiledNet> CN = Reg.acquire(M.Name);
    computeRefs(M, CN);
    size_t Bytes = serve::ModelRegistry::artifactBytes(*CN, C.MaxBatch);
    double ArtifactMiB = static_cast<double>(Bytes) / MiB;
    FleetMiB += ArtifactMiB;
    std::printf("# %s: artifact %.2f MiB, %u transform steps\n",
                M.Name.c_str(), ArtifactMiB,
                CN->program().numTransformSteps());
  }
  if (C.BudgetMiB > 0.0)
    std::printf("# budget %.1f MiB against a fleet total of %.2f MiB\n",
                C.BudgetMiB, FleetMiB);

  serve::FleetServer &Srv = *S->Srv;
  serve::RegistryStats Before = Reg.stats();
  LaneTotals LanesBefore = laneTotals(Srv);
  uint64_t NextRequest = 0;
  OpenPhase P = openPhase(Srv, Models, C.Rate, Opts.Seconds,
                          mix(Opts.Seed, 4), T, NextRequest);
  serve::RegistryStats After = Reg.stats();
  LaneTotals LanesAfter = laneTotals(Srv);
  R.Attempted = P.Attempted;
  R.Failed = P.Failed;
  Summary Lat = summarize(P.LatMs);
  printLatency("request (from due time)", Lat);
  WindowedLatency WLat = windowedLatency(P.Timed, Opts.Seconds);
  printWindowed(WLat);
  if (Models.size() > 1)
    for (size_t I = 0; I < Models.size(); ++I)
      printLatency(Models[I].Name.c_str(), summarize(P.LatMsByModel[I]));
  Summary Lag = summarize(P.LagMs);
  std::printf("# generator lag: p50 %.3f ms, p99 %.3f ms; %llu evictions\n",
              Lag.P50, Lag.P99,
              static_cast<unsigned long long>(After.Evictions -
                                              Before.Evictions));
  double Ok = static_cast<double>(P.Attempted - P.Failed);
  double SloRate = static_cast<double>(P.WithinSlo) / P.ElapsedS;
  if (C.Ladder && !Opts.Trace)
    SloRate = sloLadder(Srv, Models, C.Rate, WLat.P90, Opts, R, NextRequest);
  double PeakRss = peakRssMiB();
  // Every request has resolved, so the lanes leave the engine alone.
  R.Correct = true;
  for (const ModelSpec &M : Models)
    R.Correct &= checkAgainstSum2D(*S->St.Eng, M, Reg.acquire(M.Name));

  if (!Opts.Trace) {
    // The arrival count is fixed, so while the server keeps up this is the
    // offered rate; it drops only when responses lag behind the schedule.
    emitEndToEnd(R, median(SetupS), WLat, Ok / P.ElapsedS, SloRate, PeakRss);
    return true;
  }

  Layers L;
  Tracer Off(false);
  Summary Untraced = summarize(openPhase(Srv, Models, C.Rate, Opts.Seconds / 2,
                                         mix(Opts.Seed, 5), Off, NextRequest)
                                   .LatMs);
  L.TraceOverheadMs = Lat.P50 - Untraced.P50;
  std::printf("# tracing: %zu spans; traced p50 %.3f ms vs untraced %.3f ms\n",
              T.size(), Lat.P50, Untraced.P50);
  S->Srv->shutdown(); // the engine is idle from here on

  Summary Queue = summarize(P.QueueMs);
  L.QueueP50 = Queue.P50;
  L.QueueP90 = Queue.P90;
  L.ExecP50 = summarize(P.ExecMs).P50;
  double Batches = LanesAfter.Batches - LanesBefore.Batches;
  L.MeanBatch = Batches > 0 ? (LanesAfter.Requests - LanesBefore.Requests) /
                                  Batches
                            : 0.0;
  L.FullBatchShare =
      Batches > 0 ? (LanesAfter.Full - LanesBefore.Full) / Batches : 0.0;
  L.MaxQueueDepth = LanesAfter.MaxDepth;
  L.Rejected = LanesAfter.Rejected - LanesBefore.Rejected;
  L.Evictions = static_cast<double>(After.Evictions - Before.Evictions);
  L.Compiles = static_cast<double>(After.Compiles - Before.Compiles);
  L.Solves = static_cast<double>(After.Solves - Before.Solves);
  L.Unavailable = static_cast<double>(After.Unavailable - Before.Unavailable);
  L.PeakResidentMiB = static_cast<double>(After.PeakResidentBytes) / MiB;
  L.PlanCacheHitShare =
      After.Compiles ? static_cast<double>(After.PlanCacheHits) /
                           static_cast<double>(After.Compiles)
                     : 0.0;
  L.LagP99 = Lag.P99;
  L.Sent = static_cast<double>(P.Attempted);
  L.FailedShare = static_cast<double>(P.Failed) /
                  static_cast<double>(std::max<uint64_t>(1, P.Attempted));
  L.Cost = S->Cost;
  L.CompileMs = S->AcquireMs;

  // The registry hides its SelectionResults, so optimize is timed on a
  // fresh engine of the same configuration (cold, as in set-up).
  Stack Probe = makeStack({1}, /*CachePlans=*/false);
  double PrimaryModelledMs = 0.0;
  for (size_t I = 0; I < Models.size(); ++I) {
    int64_t Start = nowNs();
    SelectionResult Sel;
    {
      ScopedSpan Span(T, "Engine::optimize");
      Sel = Probe.Eng->optimize(Models[I].Net);
    }
    L.OptimizeMs += msSince(Start);
    if (I == 0)
      PrimaryModelledMs = Sel.ModelledPerRunMs;
    probeFormulation(*S->St.Eng, Models[I].Net, T, L);
  }
  ExecutionContextOptions SlotOpts;
  SlotOpts.UseArena = true;
  for (size_t I = 0; I < Models.size(); ++I) {
    std::shared_ptr<const CompiledNet> CN = Reg.acquire(Models[I].Name);
    L.PreparedMiB += static_cast<double>(CN->preparedBytes()) / MiB;
    L.TransformSteps += CN->program().numTransformSteps();
    std::vector<NodeRow> Rows = replayPlan(Models[I].Name, *CN,
                                           S->St.Eng->costs(), 1, ReplayReps);
    L.Rows.insert(L.Rows.end(), Rows.begin(), Rows.end());
    if (I == 0) {
      L.Run = isolatedRuns(CN, SlotOpts, Models[0].Inputs[0], ReplayReps);
      L.PoolSpeedup = poolSpeedup(CN, Models[0].Inputs[0]);
    }
  }
  finishReplay(L, Models[0].Name, PrimaryModelledMs);
  emitLayers(L, R);
  if (!Opts.TracePath.empty() && !T.write(Opts.TracePath))
    std::fprintf(stderr, "warning: could not write %s\n",
                 Opts.TracePath.c_str());
  return true;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "resnet18-stream", "mobilenet-poisson", "fleet-churn"};
  return Names;
}

bool runWorkload(const RunOptions &Opts, Report &R) {
  std::printf("# host: nproc %u, simd %s, scale %.2f, seed %llu, commit %s, "
              "workload %s, trace %d\n",
              hostThreads(),
              gemm::simdTierName(gemm::activeMicroKernel().Tier), ModelScale,
              static_cast<unsigned long long>(Opts.Seed), Opts.Commit.c_str(),
              Opts.Workload.c_str(), Opts.Trace ? 1 : 0);
  if (Opts.Workload == "resnet18-stream")
    return runClosed(Opts, R);
  if (Opts.Workload == "mobilenet-poisson") {
    FleetConfig C;
    C.Models = {{"mobilenet", 1.0}};
    C.Rate = MobilenetRate;
    // One worker whose slot pool runs a whole batch at once; with the
    // generator it fills the host. A cap above the slot count would run a
    // batch in two rounds and halve the lane's capacity at the cap.
    C.MaxBatch = C.SlotThreads = std::max(1u, std::min(4u, hostThreads() - 1));
    C.Ladder = true;
    return runOpen(Opts, C, R);
  }
  if (Opts.Workload == "fleet-churn") {
    FleetConfig C;
    C.Models = {{"mobilenet", 0.85}, {"resnet18", 0.12}, {"googlenet", 0.03}};
    C.Rate = 40.0;
    // Between the largest artifact (resnet18) and the fleet total, with
    // room for mobilenet beside resnet18 or googlenet but not for resnet18
    // beside googlenet, so cold googlenet arrivals evict.
    C.BudgetMiB = 80.0;
    C.MaxBatch = 4;
    C.SlotThreads = 1; // serial slots: three lanes and the generator
    return runOpen(Opts, C, R);
  }
  std::fprintf(stderr, "error: unknown workload '%s'\n",
               Opts.Workload.c_str());
  return false;
}

} // namespace perfbench
