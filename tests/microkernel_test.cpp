//===- tests/microkernel_test.cpp - Packed micro-kernel tests -------------===//
//
// Unit tests for the register-blocked micro-kernels behind the packed GEMM
// (gemm/MicroKernel.h): every dispatch tier the host can run is exercised
// directly on packed panels, and through sgemm on edge-tile shapes (M, N, K
// not multiples of the register block, including 1x1 and K=1). The packed
// path's numerical contract -- bitwise identity across worker counts and
// partitionings -- is asserted per tier.
//
//===----------------------------------------------------------------------===//

#include "gemm/Gemm.h"
#include "gemm/MicroKernel.h"

#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace primsel;
using namespace primsel::gemm;

namespace {

std::vector<float> randomVec(size_t N, uint64_t Seed) {
  std::vector<float> V(N);
  fillRandom(V.data(), N, Seed);
  return V;
}

/// Trusted double-precision reference for C = A * B (+ C).
std::vector<float> referenceGemm(int64_t M, int64_t N, int64_t K,
                                 const std::vector<float> &A,
                                 const std::vector<float> &B,
                                 const std::vector<float> &CInit,
                                 bool Accumulate) {
  std::vector<float> C(static_cast<size_t>(M * N), 0.0f);
  for (int64_t I = 0; I < M; ++I)
    for (int64_t J = 0; J < N; ++J) {
      double Sum = Accumulate ? CInit[static_cast<size_t>(I * N + J)] : 0.0;
      for (int64_t P = 0; P < K; ++P)
        Sum += static_cast<double>(A[static_cast<size_t>(I * K + P)]) *
               B[static_cast<size_t>(P * N + J)];
      C[static_cast<size_t>(I * N + J)] = static_cast<float>(Sum);
    }
  return C;
}

/// RAII guard so a forced tier never leaks into other tests.
struct TierOverrideGuard {
  TierOverrideGuard() : Saved(activeMicroKernel().Tier) {}
  ~TierOverrideGuard() { setSimdTierOverride(Saved); }
  SimdTier Saved;
};

class MicroKernelAllTiers : public ::testing::TestWithParam<SimdTier> {
protected:
  void SetUp() override {
    if (microKernelFor(GetParam()).Tier != GetParam())
      GTEST_SKIP() << "tier " << simdTierName(GetParam())
                   << " unsupported on this host";
  }
};

// The kernel function itself, on hand-packed full panels: an MR x NR tile
// over several K depths, assign and accumulate stores.
TEST_P(MicroKernelAllTiers, KernelMatchesReferenceOnPackedPanels) {
  const MicroKernel &MK = microKernelFor(GetParam());
  const int64_t MR = MK.MR, NR = MK.NR;
  for (int64_t K : {int64_t(1), int64_t(2), int64_t(7), int64_t(64)}) {
    std::vector<float> A =
        randomVec(static_cast<size_t>(MR * K), 100 + static_cast<uint64_t>(K));
    std::vector<float> B =
        randomVec(static_cast<size_t>(K * NR), 200 + static_cast<uint64_t>(K));
    // Pack: APanel[k*MR+i] = A[i][k], BPanel[k*NR+j] = B[k][j].
    std::vector<float> APanel(static_cast<size_t>(K * MR));
    for (int64_t P = 0; P < K; ++P)
      for (int64_t I = 0; I < MR; ++I)
        APanel[static_cast<size_t>(P * MR + I)] =
            A[static_cast<size_t>(I * K + P)];
    std::vector<float> CInit = randomVec(static_cast<size_t>(MR * NR), 300);

    for (bool Accumulate : {false, true}) {
      std::vector<float> C = CInit;
      MK.Fn(K, APanel.data(), B.data(), C.data(), NR, Accumulate);
      std::vector<float> Want =
          referenceGemm(MR, NR, K, A, B, CInit, Accumulate);
      float Tol = 1e-4f * static_cast<float>(K);
      for (size_t I = 0; I < C.size(); ++I)
        ASSERT_NEAR(C[I], Want[I], Tol)
            << simdTierName(MK.Tier) << " K=" << K << " acc=" << Accumulate
            << " at " << I;
    }
  }
}

// Edge tiles through the full packed path: M, N, K not multiples of MR/NR
// (including sub-tile, 1x1, and K=1 shapes) for both packed variants.
TEST_P(MicroKernelAllTiers, EdgeTilesMatchReferenceThroughSgemm) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();
  const int64_t MR = MK.MR, NR = MK.NR;

  struct Case {
    int64_t M, N, K;
  };
  const Case Cases[] = {
      {1, 1, 1},           {1, 1, 257},        {MR - 1, NR - 1, 3},
      {MR + 1, NR + 1, 1}, {MR, NR, 256},      {2 * MR + 1, NR, 5},
      {MR, 2 * NR + 3, 5}, {3 * MR - 1, 3 * NR - 1, 300},
      {1, 4 * NR, 17},     {4 * MR, 1, 17},
  };
  for (const Case &Sz : Cases) {
    std::vector<float> A =
        randomVec(static_cast<size_t>(Sz.M * Sz.K),
                  static_cast<uint64_t>(Sz.M * 31 + Sz.N * 7 + Sz.K));
    std::vector<float> B = randomVec(static_cast<size_t>(Sz.K * Sz.N),
                                     static_cast<uint64_t>(Sz.N * 13 + Sz.K));
    std::vector<float> CInit =
        randomVec(static_cast<size_t>(Sz.M * Sz.N), 99);

    for (bool Accumulate : {false, true}) {
      std::vector<float> Want =
          referenceGemm(Sz.M, Sz.N, Sz.K, A, B, CInit, Accumulate);
      float Tol = 1e-4f * static_cast<float>(Sz.K);

      std::vector<float> C = CInit;
      sgemm(GemmVariant::Blocked, Sz.M, Sz.N, Sz.K, A.data(), B.data(),
            C.data(), Sz.N, Accumulate);
      for (size_t I = 0; I < C.size(); ++I)
        ASSERT_NEAR(C[I], Want[I], Tol)
            << simdTierName(MK.Tier) << " blocked " << Sz.M << "x" << Sz.N
            << "x" << Sz.K << " acc=" << Accumulate << " at " << I;

      // TransposedB must agree too (same micro-kernel, B packed from B^T).
      std::vector<float> Bt(static_cast<size_t>(Sz.N * Sz.K));
      for (int64_t P = 0; P < Sz.K; ++P)
        for (int64_t J = 0; J < Sz.N; ++J)
          Bt[static_cast<size_t>(J * Sz.K + P)] =
              B[static_cast<size_t>(P * Sz.N + J)];
      std::vector<float> Ct = CInit;
      sgemm(GemmVariant::TransposedB, Sz.M, Sz.N, Sz.K, A.data(), Bt.data(),
            Ct.data(), Sz.N, Accumulate);
      for (size_t I = 0; I < Ct.size(); ++I)
        ASSERT_NEAR(Ct[I], Want[I], Tol)
            << simdTierName(MK.Tier) << " transposedB " << Sz.M << "x" << Sz.N
            << "x" << Sz.K << " acc=" << Accumulate << " at " << I;
    }
  }
}

// The numerical contract: for one tier, the packed path is bitwise
// identical across pool widths and worker caps (partitioning redistributes
// whole tiles, never the order of per-element accumulation).
TEST_P(MicroKernelAllTiers, BitIdenticalAcrossWorkerCounts) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();

  const int64_t M = 3 * MK.MR + 2, N = 2 * MK.NR + 5, K = 300;
  std::vector<float> A = randomVec(static_cast<size_t>(M * K), 5);
  std::vector<float> B = randomVec(static_cast<size_t>(K * N), 6);

  std::vector<float> Serial(static_cast<size_t>(M * N), 0.0f);
  sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), Serial.data(), N,
        false);

  ThreadPool Pool(4);
  for (int MaxThreads : {0, 1, 2, 3, 4}) {
    std::vector<float> C(static_cast<size_t>(M * N), 0.0f);
    sgemm(GemmVariant::Blocked, M, N, K, A.data(), B.data(), C.data(), N,
          false, &Pool, MaxThreads);
    for (size_t I = 0; I < C.size(); ++I)
      ASSERT_EQ(C[I], Serial[I])
          << simdTierName(MK.Tier) << " MaxThreads=" << MaxThreads << " at "
          << I;
  }
}

// Skinny products (N < NR, M > N) run transposed inside sgemm, as
// C^T = B^T * A^T. The swapped problem sgemm(B^T, A^T) has N' = M >= NR, so
// it runs in the regular orientation; its transpose must match the skinny
// result bit for bit, for both packed variants, serial and partitioned,
// assigning and accumulating into a C whose row stride exceeds N.
TEST_P(MicroKernelAllTiers, SkinnyProductsMatchRegularOrientationBitwise) {
  TierOverrideGuard Guard;
  setSimdTierOverride(GetParam());
  const MicroKernel &MK = activeMicroKernel();
  const int64_t MR = MK.MR, NR = MK.NR;
  const int64_t M = 2 * NR + 3;
  ThreadPool Pool(4);

  for (int64_t N : {int64_t(1), int64_t(3), MR - 1, NR - 1})
    for (int64_t K : {int64_t(17), int64_t(300)}) {
      const uint64_t Seed = static_cast<uint64_t>(N * 1000 + K);
      std::vector<float> A = randomVec(static_cast<size_t>(M * K), Seed);
      std::vector<float> B = randomVec(static_cast<size_t>(K * N), Seed + 1);
      std::vector<float> At(static_cast<size_t>(K * M));
      for (int64_t I = 0; I < M; ++I)
        for (int64_t P = 0; P < K; ++P)
          At[static_cast<size_t>(P * M + I)] = A[static_cast<size_t>(I * K + P)];
      std::vector<float> Bt(static_cast<size_t>(N * K));
      for (int64_t P = 0; P < K; ++P)
        for (int64_t J = 0; J < N; ++J)
          Bt[static_cast<size_t>(J * K + P)] = B[static_cast<size_t>(P * N + J)];

      const int64_t LdC = N + 5;
      std::vector<float> CInit =
          randomVec(static_cast<size_t>(M * LdC), Seed + 2);
      std::vector<float> CInitT(static_cast<size_t>(N * M));
      for (int64_t I = 0; I < M; ++I)
        for (int64_t J = 0; J < N; ++J)
          CInitT[static_cast<size_t>(J * M + I)] =
              CInit[static_cast<size_t>(I * LdC + J)];

      for (bool Accumulate : {false, true}) {
        std::vector<float> Want = CInitT;
        sgemm(GemmVariant::Blocked, N, M, K, Bt.data(), At.data(),
              Want.data(), M, Accumulate);

        // Serial (no pool), then partitioned under every worker cap.
        for (GemmVariant V : {GemmVariant::Blocked, GemmVariant::TransposedB})
          for (int Run = 0; Run < 6; ++Run) {
            ThreadPool *P = Run == 0 ? nullptr : &Pool;
            const int MaxThreads = Run == 0 ? 0 : Run - 1;
            std::vector<float> C = CInit;
            sgemm(V, M, N, K, A.data(),
                  V == GemmVariant::Blocked ? B.data() : Bt.data(), C.data(),
                  LdC, Accumulate, P, MaxThreads);
            for (int64_t I = 0; I < M; ++I)
              for (int64_t J = 0; J < LdC; ++J) {
                size_t Idx = static_cast<size_t>(I * LdC + J);
                float Expect = J < N ? Want[static_cast<size_t>(J * M + I)]
                                     : CInit[Idx];
                ASSERT_EQ(C[Idx], Expect)
                    << simdTierName(MK.Tier) << " " << gemmVariantName(V)
                    << " " << M << "x" << N << "x" << K
                    << " acc=" << Accumulate << " pool=" << (P != nullptr)
                    << " MaxThreads=" << MaxThreads << " at (" << I << ", "
                    << J << ")";
              }
          }
      }
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, MicroKernelAllTiers,
                         ::testing::Values(SimdTier::Scalar, SimdTier::AVX2,
                                           SimdTier::AVX512),
                         [](const ::testing::TestParamInfo<SimdTier> &Info) {
                           return simdTierName(Info.param);
                         });

TEST(MicroKernelDispatch, FallbackNeverExceedsRequestedTier) {
  for (SimdTier T : {SimdTier::Scalar, SimdTier::AVX2, SimdTier::AVX512})
    EXPECT_LE(static_cast<int>(microKernelFor(T).Tier), static_cast<int>(T));
}

TEST(MicroKernelDispatch, GetRangeCoversExactlyOnce) {
  for (int64_t Total : {int64_t(0), int64_t(1), int64_t(7), int64_t(64),
                        int64_t(65)}) {
    for (int64_t Slots : {int64_t(1), int64_t(3), int64_t(8)}) {
      int64_t Covered = 0, PrevEnd = 0;
      for (int64_t S = 0; S < Slots; ++S) {
        int64_t Begin, End;
        getRange(Total, Slots, S, Begin, End);
        EXPECT_EQ(Begin, PrevEnd);
        EXPECT_LE(Begin, End);
        Covered += End - Begin;
        PrevEnd = End;
      }
      EXPECT_EQ(Covered, Total);
      EXPECT_EQ(PrevEnd, Total);
    }
  }
}

} // namespace
