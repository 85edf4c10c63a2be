//===- engine/Engine.h - The unified optimizer engine -----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One reusable entry point for the paper's whole flow (§3/§5.2: extract
/// the conv scenarios, gather the costs, build and solve the PBQP query,
/// instantiate the network). Every driver -- the CLI, the examples and the
/// figure benchmarks -- goes through Engine instead of hand-wiring
/// PBQPBuilder + a solver + the Legalizer:
///
///   Engine Eng(Lib, Costs, Options);
///   SelectionResult R = Eng.optimize(Net);
///
/// The engine composes three replaceable layers:
///  - the memoizing cost layer (cost/CachingCostProvider.h), optionally
///    pre-populated in parallel on a ThreadPool, shared across every query
///    the engine serves (repeated/ensemble queries pay each raw cost once);
///  - the graph-transform pass pipeline (transforms/Pass.h), run before
///    formulation when EngineOptions.Passes names passes (O1): epilogue
///    fusion and identity elimination shrink the problem graph, and the
///    returned SelectionResult carries the rewritten graph its plan
///    indexes;
///  - the PBQP formulation (core/PBQPBuilder.h);
///  - a solver backend selected by name from the pbqp::SolverRegistry
///    (pbqp/SolverBackend.h).
///
/// It also owns the handoffs after selection: baseline-strategy planning
/// through the same cost layer, Executor instantiation, and C++ code
/// generation.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_ENGINE_ENGINE_H
#define PRIMSEL_ENGINE_ENGINE_H

#include "codegen/CodeGen.h"
#include "core/Selector.h"
#include "core/Strategies.h"
#include "engine/CompiledNet.h"
#include "engine/PlanCache.h"
#include "pbqp/SolverBackend.h"

#include <memory>
#include <string>

namespace primsel {

class Executor;
struct ExecutorOptions;

/// Configuration of an Engine.
struct EngineOptions {
  /// Solver backend name, resolved in pbqp::SolverRegistry ("reduction",
  /// "bb", "brute", or anything registered later).
  std::string Solver = "reduction";
  /// Knobs forwarded to the selected backend.
  pbqp::BackendOptions SolverOptions;
  /// Worker threads for cost-table pre-population (1 = serial lazy fills).
  unsigned Threads = 1;
  /// Memoize cost queries across this engine's lifetime.
  bool CacheCosts = true;
  /// Pre-populate the cost cache in parallel before each query (effective
  /// when CacheCosts and Threads > 1). Requires a cost provider that
  /// tolerates concurrent calls: the analytic model does, the measuring
  /// profiler does not -- disable this (or use Threads=1) when profiling.
  bool ParallelPrepopulate = true;
  /// Memoize whole SelectionResults in a PlanCache (engine/PlanCache.h)
  /// keyed by (network fingerprint, cost identity, solver fingerprint), so
  /// repeated optimize() calls over the same problem skip the solve.
  /// Implied by a non-empty PlanCacheDir.
  bool CachePlans = false;
  /// Directory for the persistent plan cache; plans solved here are
  /// written as text files, and a fresh engine pointed at the same
  /// directory serves them without solving. Empty = in-memory only (when
  /// CachePlans is set).
  std::string PlanCacheDir;
  /// Serving mode (paper §4: weight transforms ship with the model). When
  /// set, the PBQP node costs are the *per-inference* component of each
  /// instance cost -- the amortizable weight-side work (Winograd/FFT
  /// kernel transforms, GEMM weight packing, quantization tables) is
  /// excluded, because Engine::compile pays it once per artifact, not per
  /// request. Amortized weight transforms make Winograd/FFT/im2-style
  /// selections strictly cheaper relative to the direct families, so
  /// serving-mode plans can differ from (and never cost more per
  /// inference than) the default totals-based plans. The mode joins the
  /// plan-cache key, so amortized and total-cost plans never mix.
  bool AmortizeWeightTransforms = false;
  /// Candidate intra-op worker counts for the solver's thread-count
  /// dimension. Empty (the default) means {1}: the historical
  /// single-threaded formulation, bit-for-bit. With e.g. {1, 2, 4} each
  /// conv node's PBQP alternatives become (primitive, threads) pairs costed
  /// via the provider's convCostAt family, the winning counts land in
  /// NetworkPlan::ConvThreads, and CompiledNet/Executor cap each node's
  /// intra-op workers accordingly at run time. The candidate set joins the
  /// plan-cache cost identity, so single- and multi-threaded plans never
  /// mix. Worker capping never changes results (the packed GEMM is bitwise
  /// thread-count-invariant), only speed.
  std::vector<unsigned> ExecThreadCandidates;
  /// Make JIT compilation a selection dimension: optimize() additionally
  /// models serving each plan through the generated straight-line program
  /// (SelectionResult::ModelledJitPerRunMs, never more than the
  /// interpreted per-run cost) with the compiler invocation credited as
  /// prepare-phase amortizable cost (ModelledJitCompileMs). The mode joins
  /// the plan-cache cost identity (":jit"), so jit-aware and
  /// interpreter-only plans never mix. Engine::compile picks the serving
  /// mode via CompileOptions::Jit; this flag only adds the modelled
  /// comparison to selection results.
  bool ConsiderJit = false;
  /// Graph-transform passes (transforms/Pass.h) applied to the network
  /// before formulation. Empty = O0: the graph is optimized exactly as
  /// given, the historical behaviour. For O1 use
  /// transforms::PassPipeline::defaultPassNames(). When non-empty,
  /// optimize() solves over the rewritten graph and the returned
  /// SelectionResult carries it (SelectionResult::Rewritten /
  /// executionGraph()); the pipeline fingerprint joins the plan-cache key
  /// so O0 and O1 plans never mix. Names must be registered
  /// (transforms::isKnownPass) -- asserted, so CLI-style callers validate
  /// first. Takes effect per optimize() call, including the one-off
  /// optimize(Net, Options) overload.
  std::vector<std::string> Passes;
};

/// The unified optimizer: owns the cost layer and solver backend, serves
/// any number of optimize() queries.
class Engine {
public:
  /// \p Costs must outlive the engine. Asserts that Options.Solver names a
  /// registered backend (check pbqp::SolverRegistry::contains first for
  /// user-supplied names).
  Engine(const PrimitiveLibrary &Lib, CostProvider &Costs,
         EngineOptions Options = {});
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Run the full selection pipeline on \p Net: (pre-populated) costs ->
  /// PBQP query -> solver backend -> legalized plan.
  SelectionResult optimize(const NetworkGraph &Net);

  /// Compile-once entry point: optimize \p Net with this engine's options
  /// (serving deployments set AmortizeWeightTransforms), then build the
  /// immutable CompiledNet artifact over the execution graph -- weights
  /// generated, kernels prepared/transformed, memory planned. The artifact
  /// is self-contained (it owns its graph copy); serve it from any number
  /// of ExecutionContexts. The library must outlive the artifact.
  std::shared_ptr<const CompiledNet>
  compile(const NetworkGraph &Net, const CompileOptions &Options = {});

  /// As compile(Net), reusing an already-solved \p R (avoids re-running
  /// optimize when the caller needs both the SelectionResult and the
  /// artifact).
  std::shared_ptr<const CompiledNet>
  compile(const NetworkGraph &Net, const SelectionResult &R,
          const CompileOptions &Options = {}) const;

  /// As optimize(Net), but with one-off options (e.g. a different backend
  /// for a cross-check, or different solver knobs). Only Options.Solver,
  /// Options.SolverOptions, Options.Passes, Options.ParallelPrepopulate
  /// and Options.AmortizeWeightTransforms take effect here: the cost layer
  /// and thread pool are construction-time properties of the engine, so
  /// Options.CacheCosts and Options.Threads are ignored.
  SelectionResult optimize(const NetworkGraph &Net,
                           const EngineOptions &Options);

  /// Legalized plan for a baseline strategy, through the engine's cost
  /// layer. The returned plan always indexes \p Net as given -- so
  /// Strategy::PBQP runs the selection *without* the pass pipeline
  /// (callers of planFor have no way to receive a rewritten graph; use
  /// optimize() to benefit from EngineOptions.Passes).
  NetworkPlan planFor(Strategy S, const NetworkGraph &Net);

  /// Modelled cost (ms) of a legalized plan under the engine's cost layer.
  double planCost(const NetworkPlan &Plan, const NetworkGraph &Net);

  /// The PBQP instance optimize() would solve, for diagnostics and dumps.
  PBQPFormulation formulate(const NetworkGraph &Net);

  /// Executor handoff: instantiate \p Plan for real execution.
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        const NetworkPlan &Plan,
                                        unsigned Threads = 1,
                                        uint64_t WeightSeed = 7) const;

  /// Executor handoff with the full serving configuration (memory-planned
  /// arena, parallel branches; see runtime/Executor.h).
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        const NetworkPlan &Plan,
                                        const ExecutorOptions &Options) const;

  /// Executor handoff for a full SelectionResult: instantiates R.Plan over
  /// R.executionGraph(Net), so pass-rewritten plans run on the graph they
  /// index. \p R must outlive the executor (it owns the rewritten graph
  /// the executor borrows) -- binding a temporary is deleted below so
  /// `instantiate(Net, Eng.optimize(Net), ...)` cannot compile into a
  /// dangling reference.
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        const SelectionResult &R,
                                        const ExecutorOptions &Options) const;
  std::unique_ptr<Executor> instantiate(const NetworkGraph &Net,
                                        SelectionResult &&R,
                                        const ExecutorOptions &Options) const =
      delete;

  /// CodeGen handoff: render \p Plan as a compilable C++ translation unit.
  std::string emitSource(const NetworkGraph &Net, const NetworkPlan &Plan,
                         const CodeGenOptions &Options = {}) const;

  /// The cost provider queries actually go through (the cache when
  /// enabled, the raw provider otherwise).
  CostProvider &costs();

  /// Cache counters accumulated over this engine's lifetime; null when
  /// caching is disabled.
  const CostCacheStats *cacheStats() const;

  /// The plan cache; null unless CachePlans or PlanCacheDir configured it.
  PlanCache *planCache() { return Plans.get(); }
  const PlanCacheStats *planCacheStats() const {
    return Plans ? &Plans->stats() : nullptr;
  }

  /// The cache key optimize() uses for \p Net with this engine's solver
  /// configuration (exposed so tools can inspect/evict entries). Runs the
  /// engine's pass pipeline to fingerprint the rewritten network, exactly
  /// as optimize() would.
  PlanKey planKey(const NetworkGraph &Net) const;

  const PrimitiveLibrary &library() const { return Lib; }
  const EngineOptions &options() const { return Opts; }

private:
  SelectionResult run(const NetworkGraph &Net, pbqp::SolverBackend &Backend,
                      const EngineOptions &Options);

  const PrimitiveLibrary &Lib;
  CostProvider &Raw;
  EngineOptions Opts;
  std::unique_ptr<CachingCostProvider> Cache; ///< when Opts.CacheCosts
  std::unique_ptr<ThreadPool> Pool;           ///< when Opts.Threads > 1
  std::unique_ptr<pbqp::SolverBackend> Backend;
  std::unique_ptr<PlanCache> Plans; ///< when Opts.CachePlans/PlanCacheDir
};

/// One-shot convenience for drivers that run a single query: build an
/// Engine, optimize \p Net, return the result.
SelectionResult optimizeNetwork(const NetworkGraph &Net,
                                const PrimitiveLibrary &Lib,
                                CostProvider &Costs,
                                const EngineOptions &Options = {});

} // namespace primsel

#endif // PRIMSEL_ENGINE_ENGINE_H
