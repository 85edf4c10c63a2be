//===- perfbench/src/Bench.h - Benchmark internals --------------*- C++ -*-===//
//
// Part of primsel's benchmark. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark program: the metric report, the in-memory
/// span recorder, the counting cost-provider wrapper and the per-node
/// replay. Everything here sits outside the library and reaches it only
/// through public entry points.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "cost/CostProvider.h"
#include "engine/CompiledNet.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock, the one time base of every span and
/// latency the benchmark records.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// What one run reports: the end-to-end metrics (untraced runs), the
/// per-layer metrics (traced runs) and the request accounting.
struct Report {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;

  void e2e(const std::string &Name, const char *Unit, double V) {
    EndToEnd.push_back({Name, Unit, V});
  }
  void layer(const std::string &Name, const char *Unit, double V) {
    PerLayer.push_back({Name, Unit, V});
  }
};

/// In-memory span recorder. Spans carry a name, start and end (ns on the
/// steady clock), the index of the span that caused them (-1 for roots)
/// and a request id (0 outside requests). When off, every call is a no-op.
class Tracer {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int Parent = -1;
    uint64_t Request = 0;
  };

  explicit Tracer(bool On) : On(On) {}

  bool on() const { return On; }

  /// Open a span starting now; returns its id (-1 when off).
  int begin(const std::string &Name, int Parent = -1, uint64_t Request = 0);
  /// Close span \p Id now.
  void end(int Id);
  /// Record a finished span with explicit times (rebuilt from a response).
  void add(const std::string &Name, int64_t StartNs, int64_t EndNs,
           int Parent, uint64_t Request);
  /// Write every span as JSON lines to \p Path.
  bool write(const std::string &Path) const;
  size_t size() const;

private:
  bool On;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, int Parent = -1,
             uint64_t Request = 0)
      : T(T), Id(T.begin(Name, Parent, Request)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

/// Forwarding CostProvider that counts and times every call reaching the
/// provider it wraps. The engine memoizes above it, so these are the raw
/// evaluations (analytic model runs or profiler measurements). Reports the
/// wrapped identity, so plan-cache keys are those of the bare provider.
class CountingCosts final : public primsel::CostProvider {
public:
  explicit CountingCosts(primsel::CostProvider &Inner) : Inner(Inner) {}

  double convCost(const primsel::ConvScenario &S,
                  primsel::PrimitiveId Id) override;
  double transformCost(primsel::Layout From, primsel::Layout To,
                       const primsel::TensorShape &Shape) override;
  primsel::CostBreakdown convCostBreakdown(const primsel::ConvScenario &S,
                                           primsel::PrimitiveId Id) override;
  primsel::CostBreakdown
  transformCostBreakdown(primsel::Layout From, primsel::Layout To,
                         const primsel::TensorShape &Shape) override;
  double convServingCost(const primsel::ConvScenario &S,
                         primsel::PrimitiveId Id) override;
  double convCostAt(const primsel::ConvScenario &S, primsel::PrimitiveId Id,
                    unsigned Threads) override;
  double convServingCostAt(const primsel::ConvScenario &S,
                           primsel::PrimitiveId Id,
                           unsigned Threads) override;
  primsel::CostBreakdown convCostBreakdownAt(const primsel::ConvScenario &S,
                                             primsel::PrimitiveId Id,
                                             unsigned Threads) override;
  double dispatchOverheadMs() const override {
    return Inner.dispatchOverheadMs();
  }
  std::string identity() const override { return Inner.identity(); }

  uint64_t calls() const { return Calls.load(); }
  double millis() const { return static_cast<double>(Ns.load()) / 1e6; }

private:
  template <typename F> auto timed(F &&Call) {
    int64_t Start = nowNs();
    auto Result = Call();
    Ns.fetch_add(nowNs() - Start);
    Calls.fetch_add(1);
    return Result;
  }

  primsel::CostProvider &Inner;
  std::atomic<uint64_t> Calls{0};
  std::atomic<int64_t> Ns{0};
};

/// One step of a served plan replayed in isolation.
struct NodeRow {
  std::string Model;
  unsigned Node = 0;
  bool IsConv = false;
  std::string Routine;
  std::string Family; ///< conv family name; "transform" for layout hops
  unsigned Threads = 1;
  double ModelledMs = 0.0;
  double MeasuredMs = 0.0; ///< median of the replays
  double Flops = 0.0;      ///< 2 x MACs for conv steps, 0 otherwise
  /// The conv as one GEMM (M = out channels, N = output pixels,
  /// K = C x K x K); zero for depthwise convs and transforms.
  int64_t GemmM = 0, GemmN = 0, GemmK = 0;
};

/// Replay every conv and transform step of \p CN in isolation through the
/// library's public primitive and transform functions: conv steps through
/// prepareWithEpilogue/bindWithEpilogue and ConvInstance::run at the
/// node's thread cap (limited to \p CtxThreads, the serving context's
/// width), transform steps through runTransform. Modelled costs come from
/// \p Costs, the engine's cost layer that selected the plan.
std::vector<NodeRow> replayPlan(const std::string &Model,
                                const primsel::CompiledNet &CN,
                                primsel::CostProvider &Costs,
                                unsigned CtxThreads, unsigned Reps);

/// Medians of ExecutionContext::run over \p Reps runs on a fresh context.
struct RunBreakdown {
  double RunMs = 0.0;
  double ConvMs = 0.0;
  double OtherMs = 0.0; ///< dummy layers
};
RunBreakdown isolatedRuns(const std::shared_ptr<const primsel::CompiledNet> &CN,
                          const primsel::ExecutionContextOptions &Opts,
                          const primsel::Tensor3D &Input, unsigned Reps);

/// GFLOP/s of the public sgemm on the largest GEMM shape among \p Rows,
/// at that row's thread count. 0 when no row has a GEMM shape.
double gemmProbeGflops(const std::vector<NodeRow> &Rows, unsigned Reps);

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Commit = "unknown";
  std::string TracePath; ///< where the traced run writes its spans
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Run one workload, filling \p R. Returns false on an unknown workload or
/// a set-up failure (after printing why).
bool runWorkload(const RunOptions &Opts, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
