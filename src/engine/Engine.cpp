//===- engine/Engine.cpp --------------------------------------------------===//

#include "engine/Engine.h"

#include "runtime/Executor.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace primsel;

Engine::Engine(const PrimitiveLibrary &Lib, CostProvider &Costs,
               EngineOptions Options)
    : Lib(Lib), Raw(Costs), Opts(std::move(Options)) {
  if (Opts.CacheCosts)
    Cache = std::make_unique<CachingCostProvider>(Raw);
  if (Opts.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Opts.Threads);
  Backend = pbqp::createSolverBackend(Opts.Solver);
  assert(Backend && "EngineOptions.Solver names no registered backend");
  if (Opts.CachePlans || !Opts.PlanCacheDir.empty())
    Plans = std::make_unique<PlanCache>(Opts.PlanCacheDir);
}

Engine::~Engine() = default;

CostProvider &Engine::costs() { return Cache ? *Cache : Raw; }

const CostCacheStats *Engine::cacheStats() const {
  return Cache ? &Cache->stats() : nullptr;
}

namespace {

/// The effective thread-candidate axis: clamped to >= 1, sorted and
/// deduplicated (the formulation and the cache identity must not depend on
/// the order the caller listed candidates in), empty normalized to {1}.
std::vector<unsigned> normalizedThreadCandidates(std::vector<unsigned> C) {
  for (unsigned &T : C)
    T = std::max(T, 1u);
  std::sort(C.begin(), C.end());
  C.erase(std::unique(C.begin(), C.end()), C.end());
  if (C.empty())
    C.push_back(1);
  return C;
}

/// The plan-cache cost-identity component: the provider identity, tagged
/// with the amortization mode -- serving-mode plans are solved over
/// different node costs, so they must never be served for (or overwrite)
/// totals-based plans of the same network -- and with the thread-candidate
/// axis when it is wider than the historical {1} (thread-aware plans are
/// solved over different node costs too).
std::string costIdentityFor(const CostProvider &Raw,
                            bool AmortizeWeightTransforms,
                            const std::vector<unsigned> &ThreadCandidates,
                            bool ConsiderJit) {
  std::string Id = Raw.identity();
  if (AmortizeWeightTransforms)
    Id += "+amortized";
  std::vector<unsigned> Axis = normalizedThreadCandidates(ThreadCandidates);
  if (Axis.size() != 1 || Axis[0] != 1) {
    Id += ":et";
    for (size_t I = 0; I < Axis.size(); ++I)
      Id += (I ? "," : "") + std::to_string(Axis[I]);
  }
  // The JIT dimension solves over the same node costs but reports an
  // extra modelled comparison; tag it so jit-aware and interpreter-only
  // plans never serve each other from the cache.
  if (ConsiderJit)
    Id += ":jit";
  return Id;
}

/// Modelled one-time cost (ms) of JIT-compiling a plan with \p Steps
/// execution steps: compiler process startup plus per-step source growth.
/// Deliberately coarse -- it is amortizable prepare-phase cost, so its
/// magnitude only matters against other prepare work, never against
/// per-run cost.
double modelledJitCompileMs(size_t Steps) {
  return 150.0 + 2.0 * static_cast<double>(Steps);
}

} // namespace

PlanKey Engine::planKey(const NetworkGraph &Net) const {
  PlanKey K;
  if (Opts.Passes.empty()) {
    K.NetworkFingerprint = fingerprintNetwork(Net, Lib);
  } else {
    NetworkGraph Rewritten =
        transforms::PassPipeline::fromNames(Opts.Passes).run(Net);
    K.NetworkFingerprint = fingerprintNetwork(Rewritten, Lib);
  }
  K.CostIdentity = costIdentityFor(Raw, Opts.AmortizeWeightTransforms,
                                   Opts.ExecThreadCandidates,
                                   Opts.ConsiderJit);
  K.SolverFingerprint = fingerprintSolver(Opts.Solver, Opts.SolverOptions);
  K.PassFingerprint = transforms::fingerprintPasses(Opts.Passes);
  return K;
}

SelectionResult Engine::run(const NetworkGraph &Net,
                            pbqp::SolverBackend &SolverBackend,
                            const EngineOptions &Options) {
  // The pass pipeline runs first: every later stage -- fingerprints,
  // cache lookups, cost gathering, the solve, legalization -- operates on
  // the rewritten graph. Rewriting is deterministic and cheap (pure graph
  // surgery), so rerunning it on plan-cache hits is fine; the cached plan
  // indexes the identical rewritten structure.
  std::shared_ptr<const NetworkGraph> Rewritten;
  std::vector<transforms::PassStats> PassStats;
  const NetworkGraph *Target = &Net;
  if (!Options.Passes.empty()) {
    transforms::PassPipeline Pipeline =
        transforms::PassPipeline::fromNames(Options.Passes);
    Rewritten =
        std::make_shared<NetworkGraph>(Pipeline.run(Net, &PassStats));
    Target = Rewritten.get();
  }

  // The JIT selection dimension, attached uniformly to solved and
  // cache-hit results: the modelled steady-state cost of serving the plan
  // through the generated straight-line program. Derived from the plan's
  // own modelled cost minus the per-step dispatch overhead (clamped, so
  // enabling the dimension can never increase the modelled cost), with
  // the compiler invocation credited as amortizable prepare work. Queries
  // go to the raw provider: CachingCostProvider memoizes only the conv/
  // transform families.
  auto attachJitModel = [&](SelectionResult &Res) {
    if (!Options.ConsiderJit || Res.Plan.empty())
      return;
    size_t Steps =
        ExecutionPlan::compile(*Target, Res.Plan, Lib).steps().size();
    double Base = Options.AmortizeWeightTransforms ? Res.ModelledPerRunMs
                                                   : Res.ModelledCostMs;
    Res.JitConsidered = true;
    Res.ModelledJitPerRunMs = std::max(
        0.0, Base - Raw.dispatchOverheadMs() * static_cast<double>(Steps));
    Res.ModelledJitCompileMs = modelledJitCompileMs(Steps);
  };

  PlanKey Key;
  if (Plans) {
    Key.NetworkFingerprint = fingerprintNetwork(*Target, Lib);
    Key.CostIdentity = costIdentityFor(Raw, Options.AmortizeWeightTransforms,
                                       Options.ExecThreadCandidates,
                                       Options.ConsiderJit);
    Key.SolverFingerprint =
        fingerprintSolver(SolverBackend.name(), Options.SolverOptions);
    Key.PassFingerprint = transforms::fingerprintPasses(Options.Passes);
    Timer LookupTimer;
    if (std::optional<SelectionResult> Hit =
            Plans->lookup(Key, *Target, Lib)) {
      // The plan is the artifact worth caching; the solve never happened,
      // so report lookup time, not the original run's timings.
      Hit->PlanCacheHit = true;
      Hit->BuildMillis = LookupTimer.millis();
      Hit->SolveMillis = 0.0;
      Hit->Cache = Cache ? Cache->stats() : CostCacheStats{};
      // Hand the caller *this* run's rewritten graph: a memory hit may
      // carry the graph of a structurally-equal network solved earlier,
      // and a disk hit carries none.
      Hit->Rewritten = Rewritten;
      Hit->Passes = PassStats;
      attachJitModel(*Hit);
      return *Hit;
    }
  }

  SelectionResult R;
  R.Backend = SolverBackend.name();
  R.Rewritten = Rewritten;
  R.Passes = std::move(PassStats);

  Timer BuildTimer;
  if (Cache && Pool && Options.ParallelPrepopulate)
    Cache->prepopulate(*Target, Lib, *Pool);

  CostProvider &Provider = costs();
  DTTableCache Tables(Provider);
  PBQPFormulation F =
      buildPBQP(*Target, Lib, Provider, Tables,
                Options.AmortizeWeightTransforms,
                normalizedThreadCandidates(Options.ExecThreadCandidates));
  R.BuildMillis = BuildTimer.millis();
  R.NumNodes = F.G.numNodes();
  R.NumEdges = F.G.numEdges();

  Timer SolveTimer;
  R.Solver = SolverBackend.solve(F.G, Options.SolverOptions);
  R.SolveMillis = SolveTimer.millis();

  R.Plan = planFromSolution(F, R.Solver.Selection, *Target, Lib, Tables);
  R.ModelledCostMs = modelPlanCost(R.Plan, *Target, Lib, Provider);
  if (Options.AmortizeWeightTransforms) {
    CostBreakdown PB = modelPlanCostBreakdown(R.Plan, *Target, Lib, Provider);
    R.ModelledPerRunMs = PB.PerRunMs;
    R.ModelledPrepareMs = PB.AmortizedMs;
  }
  if (Cache)
    R.Cache = Cache->stats();
  if (Plans)
    Plans->store(Key, R, *Target, Lib);
  attachJitModel(R);
  return R;
}

SelectionResult Engine::optimize(const NetworkGraph &Net) {
  return run(Net, *Backend, Opts);
}

SelectionResult Engine::optimize(const NetworkGraph &Net,
                                 const EngineOptions &Options) {
  if (Options.Solver == Opts.Solver)
    return run(Net, *Backend, Options);
  std::unique_ptr<pbqp::SolverBackend> OneOff =
      pbqp::createSolverBackend(Options.Solver);
  assert(OneOff && "EngineOptions.Solver names no registered backend");
  return run(Net, *OneOff, Options);
}

NetworkPlan Engine::planFor(Strategy S, const NetworkGraph &Net) {
  if (S == Strategy::PBQP) {
    // planFor's contract is a plan over \p Net as given; run the selection
    // without the pass pipeline (the caller has no way to receive a
    // rewritten graph through a bare NetworkPlan).
    EngineOptions NoPasses = Opts;
    NoPasses.Passes.clear();
    return run(Net, *Backend, NoPasses).Plan;
  }
  return planForStrategy(S, Net, Lib, costs());
}

double Engine::planCost(const NetworkPlan &Plan, const NetworkGraph &Net) {
  return modelPlanCost(Plan, Net, Lib, costs());
}

PBQPFormulation Engine::formulate(const NetworkGraph &Net) {
  // Formulate what optimize() would actually solve: the pass-rewritten
  // graph when a pipeline is configured (so e.g. brute-force feasibility
  // checks see the real assignment space).
  const NetworkGraph *Target = &Net;
  NetworkGraph Rewritten("");
  if (!Opts.Passes.empty()) {
    Rewritten = transforms::PassPipeline::fromNames(Opts.Passes).run(Net);
    Target = &Rewritten;
  }
  if (Cache && Pool && Opts.ParallelPrepopulate)
    Cache->prepopulate(*Target, Lib, *Pool);
  CostProvider &Provider = costs();
  DTTableCache Tables(Provider);
  return buildPBQP(*Target, Lib, Provider, Tables,
                   Opts.AmortizeWeightTransforms,
                   normalizedThreadCandidates(Opts.ExecThreadCandidates));
}

std::shared_ptr<const CompiledNet>
Engine::compile(const NetworkGraph &Net, const CompileOptions &Options) {
  SelectionResult R = optimize(Net);
  if (R.Plan.empty())
    return nullptr;
  return compile(Net, R, Options);
}

std::shared_ptr<const CompiledNet>
Engine::compile(const NetworkGraph &Net, const SelectionResult &R,
                const CompileOptions &Options) const {
  if (R.Plan.empty())
    return nullptr;
  // JIT objects cache next to the plans: a fleet pointed at one warm
  // directory skips the compiler the same way it skips the solver.
  CompileOptions Effective = Options;
  if (Effective.Jit && Effective.JitOpts.CacheDir.empty())
    Effective.JitOpts.CacheDir = Opts.PlanCacheDir;
  return CompiledNet::build(R.executionGraph(Net), R.Plan, Lib, Effective);
}

std::unique_ptr<Executor> Engine::instantiate(const NetworkGraph &Net,
                                              const NetworkPlan &Plan,
                                              unsigned Threads,
                                              uint64_t WeightSeed) const {
  return std::make_unique<Executor>(Net, Plan, Lib, Threads, WeightSeed);
}

std::unique_ptr<Executor>
Engine::instantiate(const NetworkGraph &Net, const NetworkPlan &Plan,
                    const ExecutorOptions &Options) const {
  return std::make_unique<Executor>(Net, Plan, Lib, Options);
}

std::unique_ptr<Executor>
Engine::instantiate(const NetworkGraph &Net, const SelectionResult &R,
                    const ExecutorOptions &Options) const {
  return std::make_unique<Executor>(R.executionGraph(Net), R.Plan, Lib,
                                    Options);
}

std::string Engine::emitSource(const NetworkGraph &Net,
                               const NetworkPlan &Plan,
                               const CodeGenOptions &Options) const {
  return emitPlanSource(Net, Plan, Lib, Options);
}

SelectionResult primsel::optimizeNetwork(const NetworkGraph &Net,
                                         const PrimitiveLibrary &Lib,
                                         CostProvider &Costs,
                                         const EngineOptions &Options) {
  Engine Eng(Lib, Costs, Options);
  return Eng.optimize(Net);
}
