//===- batch/Minibatch.h - §8 minibatch parallelism extension ---*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §8 minibatch extension: "Our formulation ... does not
/// currently consider minibatch parallelism, but this can be encoded with
/// another integer parameter to the model (the minibatch size). This would
/// enable our optimization approach to select either parallel GEMM or
/// minibatch parallelism on a per-layer basis."
///
/// ConvScenario carries that integer parameter (Batch). This module supplies
/// the two batch schedules as ordinary primitives, so the unchanged PBQP
/// formulation makes the per-layer choice:
///
///  - layer-parallel ("@bser"): images run serially; each image uses the
///    run context's thread pool inside the primitive (the paper's "parallel
///    GEMM" alternative);
///  - image-parallel ("@bpar"): images are distributed across the pool;
///    each image runs a single-threaded primitive ("minibatch
///    parallelism").
///
/// Which schedule wins depends on the layer: big layers saturate the cores
/// from inside one image, while small layers amortize parallelization
/// overhead better across images -- exactly the kind of unpredictable
/// trade-off the paper resolves by profiling + PBQP instead of heuristics.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_BATCH_MINIBATCH_H
#define PRIMSEL_BATCH_MINIBATCH_H

#include "cost/CostProvider.h"
#include "primitives/Registry.h"

namespace primsel {

/// The two batch schedules of the §8 extension.
enum class BatchPolicy : uint8_t {
  LayerParallel, ///< serial over images, thread pool inside the primitive
  ImageParallel, ///< images across the pool, single-threaded primitives
};

const char *batchPolicyName(BatchPolicy P);

/// A batch-capable primitive wrapping a per-image routine with a schedule.
///
/// The wrapper is transparent for every descriptor property (family,
/// layouts, library tag); its name is the base name plus "@bser" /
/// "@bpar". It supports any minibatch size whose per-image subproblem the
/// base routine supports.
class MinibatchPrimitive : public ConvPrimitive {
public:
  /// \p Base must outlive the wrapper (both normally live in the same
  /// PrimitiveLibrary, whose storage is stable).
  MinibatchPrimitive(const ConvPrimitive &Base, BatchPolicy Policy)
      : Base(Base), Policy(Policy) {}

  std::string name() const override;
  ConvFamily family() const override { return Base.family(); }
  Layout inputLayout() const override { return Base.inputLayout(); }
  Layout outputLayout() const override { return Base.outputLayout(); }
  const char *libraryTag() const override { return Base.libraryTag(); }
  bool isDepthwise() const override { return Base.isDepthwise(); }

  bool supports(const ConvScenario &S) const override {
    return S.Batch >= 2 && Base.supports(S.singleImage());
  }
  /// Wrappers serve only true minibatches; batch-1 scenarios go to the
  /// base routines directly, keeping the selection space free of
  /// duplicated alternatives.
  bool supportsBatch(int64_t Batch) const override { return Batch >= 2; }

  size_t workspaceBytes(const ConvScenario &S) const override;

  /// The wrapper's weight-side artifact is the base routine's, prepared on
  /// the per-image subproblem -- image-parallel schedules used to duplicate
  /// the weight packing per image slot; with the prepare/bind split every
  /// slot binds the one shared PreparedKernel.
  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override;

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override;

  const ConvPrimitive &base() const { return Base; }
  BatchPolicy policy() const { return Policy; }

private:
  const ConvPrimitive &Base;
  BatchPolicy Policy;
};

/// Wrap every per-image primitive already in \p Lib with both batch
/// schedules, in place. Returns the number of wrappers added. Call after
/// all base registrations; wrappers are not themselves wrapped.
unsigned addMinibatchVariants(PrimitiveLibrary &Lib);

/// Build the full library plus both batch schedules for every routine --
/// the §8 selection space for batched inference.
PrimitiveLibrary buildBatchedLibrary();

/// CostProvider adapter for batched networks: conv costs pass through
/// (the profiler measures runBatch for Batch > 1 scenarios), while layout
/// transformation costs are scaled by the batch size, because a legalizing
/// transform must convert every image flowing along the edge.
class BatchTransformScaledProvider : public CostProvider {
public:
  BatchTransformScaledProvider(CostProvider &Inner, int64_t Batch)
      : Inner(Inner), Batch(Batch) {}

  double convCost(const ConvScenario &S, PrimitiveId Id) override {
    return Inner.convCost(S, Id);
  }
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override {
    return static_cast<double>(Batch) * Inner.transformCost(From, To, Shape);
  }
  CostBreakdown convCostBreakdown(const ConvScenario &S,
                                  PrimitiveId Id) override {
    return Inner.convCostBreakdown(S, Id);
  }
  double convServingCost(const ConvScenario &S, PrimitiveId Id) override {
    return Inner.convServingCost(S, Id);
  }
  CostBreakdown transformCostBreakdown(Layout From, Layout To,
                                       const TensorShape &Shape) override {
    CostBreakdown B = Inner.transformCostBreakdown(From, To, Shape);
    // Every image flowing along the edge converts afresh; only the per-run
    // half scales.
    B.PerRunMs *= static_cast<double>(Batch);
    return B;
  }
  // The thread-count axis passes through untouched -- the CostProvider
  // defaults would silently drop Threads (they fall back to convCost).
  double convCostAt(const ConvScenario &S, PrimitiveId Id,
                    unsigned Threads) override {
    return Inner.convCostAt(S, Id, Threads);
  }
  double convServingCostAt(const ConvScenario &S, PrimitiveId Id,
                           unsigned Threads) override {
    return Inner.convServingCostAt(S, Id, Threads);
  }
  CostBreakdown convCostBreakdownAt(const ConvScenario &S, PrimitiveId Id,
                                    unsigned Threads) override {
    return Inner.convCostBreakdownAt(S, Id, Threads);
  }
  double dispatchOverheadMs() const override {
    return Inner.dispatchOverheadMs();
  }
  std::string identity() const override {
    return Inner.identity() + ":bx" + std::to_string(Batch);
  }

private:
  CostProvider &Inner;
  int64_t Batch;
};

} // namespace primsel

#endif // PRIMSEL_BATCH_MINIBATCH_H
