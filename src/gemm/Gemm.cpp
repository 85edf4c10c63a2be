//===- gemm/Gemm.cpp ------------------------------------------------------===//
//
// The Blocked and TransposedB variants run through a BLIS-style packed
// macro-kernel: K is blocked by KC, both operands are packed into
// register-tile panels (zero-padded at the edges), and an MR x NR
// micro-kernel (runtime-dispatched: scalar / AVX2 / AVX-512, see
// MicroKernel.h) computes each C tile from the panels. Work is split across
// the pool with a deterministic getRange partition of the larger tile
// dimension; the pack buffers are thread-local and reused across calls, so
// the serving hot path allocates nothing after warm-up.
//
// Bit-identity contract: element C[i][j] accumulates its K products in
// ascending-k order -- fixed KC blocking, register accumulation within a
// block, one add into C per block -- independent of tile position, edge
// handling, worker count, partition dimension, or orientation (skinny
// products run transposed, see packedGemm). sgemm therefore returns
// bitwise-identical results for any Pool/MaxThreads. The Naive variant keeps
// the textbook loops (it is priced as the slow baseline primitive).
//
//===----------------------------------------------------------------------===//

#include "gemm/Gemm.h"

#include "gemm/MicroKernel.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace primsel;
using namespace primsel::gemm;

const char *primsel::gemmVariantName(GemmVariant V) {
  switch (V) {
  case GemmVariant::Naive:
    return "naive";
  case GemmVariant::Blocked:
    return "blocked";
  case GemmVariant::TransposedB:
    return "Bt";
  }
  assert(false && "unknown gemm variant");
  return "?";
}

namespace {

void gemmRowNaive(int64_t I, int64_t N, int64_t K, const float *A,
                  const float *B, float *CRow) {
  const float *ARow = A + I * K;
  for (int64_t J = 0; J < N; ++J) {
    float Sum = 0.0f;
    for (int64_t P = 0; P < K; ++P)
      Sum += ARow[P] * B[P * N + J];
    CRow[J] += Sum;
  }
}

//===----------------------------------------------------------------------===//
// Packed macro-kernel path
//===----------------------------------------------------------------------===//

/// K-dimension cache block. Fixed (never shrunk to fit a machine) because it
/// is part of the numerical contract: partial sums round to float at KC
/// boundaries.
constexpr int64_t KC = 256;

/// Per-thread pack scratch, grown on demand and reused across sgemm calls.
struct PackScratch {
  AlignedBuffer A;
  AlignedBuffer B;
};

PackScratch &packScratch() {
  thread_local PackScratch S;
  return S;
}

void ensureCapacity(AlignedBuffer &Buf, size_t NumFloats) {
  if (Buf.size() < NumFloats)
    Buf.reset(NumFloats);
}

/// Pack the MR x Kc A tile at row I0, k offset Pc: Panel[p * MR + i] =
/// A[I0 + i][Pc + p], zero beyond row M.
void packATile(const float *A, int64_t M, int64_t K, int64_t I0, int MR,
               int64_t Pc, int64_t Kc, float *Panel) {
  int Mr = static_cast<int>(std::min<int64_t>(MR, M - I0));
  for (int64_t P = 0; P < Kc; ++P) {
    const float *Col = A + Pc + P;
    float *Out = Panel + P * MR;
    for (int I = 0; I < Mr; ++I)
      Out[I] = Col[(I0 + I) * K];
    for (int I = Mr; I < MR; ++I)
      Out[I] = 0.0f;
  }
}

/// Pack the Kc x NR B tile at column J0 from row-major K x N storage.
void packBTile(const float *B, int64_t N, int64_t J0, int NR, int64_t Pc,
               int64_t Kc, float *Panel) {
  int Nr = static_cast<int>(std::min<int64_t>(NR, N - J0));
  for (int64_t P = 0; P < Kc; ++P) {
    const float *Row = B + (Pc + P) * N + J0;
    float *Out = Panel + P * NR;
    for (int J = 0; J < Nr; ++J)
      Out[J] = Row[J];
    for (int J = Nr; J < NR; ++J)
      Out[J] = 0.0f;
  }
}

/// Same tile from transposed storage (Bt is N x K row-major).
void packBtTile(const float *Bt, int64_t K, int64_t N, int64_t J0, int NR,
                int64_t Pc, int64_t Kc, float *Panel) {
  int Nr = static_cast<int>(std::min<int64_t>(NR, N - J0));
  for (int J = 0; J < Nr; ++J) {
    const float *Col = Bt + (J0 + J) * K + Pc;
    for (int64_t P = 0; P < Kc; ++P)
      Panel[P * NR + J] = Col[P];
  }
  for (int J = Nr; J < NR; ++J)
    for (int64_t P = 0; P < Kc; ++P)
      Panel[P * NR + J] = 0.0f;
}

/// Run the micro-kernel on one tile, routing edge tiles through a stack
/// temp so the kernel always sees a full MR x NR footprint. The copy-out
/// performs the same single add (or assign) into C that an interior tile's
/// kernel store does, so edge handling never changes bits. With
/// \p Transposed the tile is a block of C^T (rows I0.. index C's columns),
/// so every tile goes through the temp and is stored transposed.
void runTile(const MicroKernel &MK, int64_t Kc, const float *APanel,
             const float *BPanel, float *C, int64_t LdC, int64_t M, int64_t N,
             int64_t I0, int64_t J0, bool AccumBlock, bool Transposed) {
  const int MR = MK.MR, NR = MK.NR;
  if (!Transposed && I0 + MR <= M && J0 + NR <= N) {
    MK.Fn(Kc, APanel, BPanel, C + I0 * LdC + J0, LdC, AccumBlock);
    return;
  }
  float Tmp[8 * 32]; // covers the largest tier geometry
  MK.Fn(Kc, APanel, BPanel, Tmp, NR, /*Accumulate=*/false);
  int Mr = static_cast<int>(std::min<int64_t>(MR, M - I0));
  int Nr = static_cast<int>(std::min<int64_t>(NR, N - J0));
  if (Transposed) {
    for (int J = 0; J < Nr; ++J) {
      float *Row = C + (J0 + J) * LdC + I0;
      if (AccumBlock)
        for (int I = 0; I < Mr; ++I)
          Row[I] += Tmp[I * NR + J];
      else
        for (int I = 0; I < Mr; ++I)
          Row[I] = Tmp[I * NR + J];
    }
    return;
  }
  for (int I = 0; I < Mr; ++I) {
    float *Row = C + (I0 + I) * LdC + J0;
    const float *Src = Tmp + I * NR;
    if (AccumBlock)
      for (int J = 0; J < Nr; ++J)
        Row[J] += Src[J];
    else
      for (int J = 0; J < Nr; ++J)
        Row[J] = Src[J];
  }
}

void packedGemm(bool BTransposed, int64_t M, int64_t N, int64_t K,
                const float *A, const float *B, float *C, int64_t LdC,
                bool Accumulate, ThreadPool *Pool, int MaxThreads) {
  const MicroKernel &MK = activeMicroKernel();
  const int MR = MK.MR, NR = MK.NR;
  // A skinny product (fewer columns than one NR tile, more rows) runs as
  // C^T = B^T A^T, so its long side fills the NR lanes. Each element still
  // sums the same products in ascending-k order (x * y == y * x, also
  // under FMA), so the orientation never changes bits.
  const bool Transposed = N < NR && M > N;
  const int64_t TM = Transposed ? N : M, TN = Transposed ? M : N;
  const int64_t MTiles = (TM + MR - 1) / MR;
  const int64_t NTiles = (TN + NR - 1) / NR;
  // Partition the dimension with more register tiles; conv GEMMs typically
  // have a short M (output channels) and a long N (output pixels). The
  // choice only redistributes work -- it never changes any element's math.
  const bool SplitN = NTiles >= MTiles;
  // A-block height per compute sweep, in tiles: keeps the packed A slice
  // resident in L2 while B panels stream past it.
  const int64_t MCTiles = std::max<int64_t>(1, 192 / MR);

  int64_t W = 1;
  if (Pool && Pool->numThreads() > 1) {
    W = std::min<int64_t>(Pool->numThreads(), SplitN ? NTiles : MTiles);
    if (MaxThreads > 0)
      W = std::min<int64_t>(W, MaxThreads);
  }

  const int64_t KcMax = std::min(K, KC);
  PackScratch &S = packScratch();
  ensureCapacity(S.A, static_cast<size_t>(MTiles * MR * KcMax));
  ensureCapacity(S.B, static_cast<size_t>(NTiles * NR * KcMax));
  float *APack = S.A.data();
  float *BPack = S.B.data();

  for (int64_t Pc = 0; Pc < K; Pc += KC) {
    const int64_t Kc = std::min(KC, K - Pc);
    const bool AccumBlock = Accumulate || Pc > 0;

    // MR panels of the row operand: A, or B^T when transposed.
    auto PackARange = [&](int64_t TB, int64_t TE) {
      for (int64_t It = TB; It < TE; ++It) {
        float *Panel = APack + It * KcMax * MR;
        if (!Transposed)
          packATile(A, M, K, It * MR, MR, Pc, Kc, Panel);
        else if (BTransposed)
          packATile(B, N, K, It * MR, MR, Pc, Kc, Panel);
        else
          packBTile(B, N, It * MR, MR, Pc, Kc, Panel);
      }
    };
    // NR panels of the column operand: B, or A^T when transposed.
    auto PackBRange = [&](int64_t TB, int64_t TE) {
      for (int64_t Jt = TB; Jt < TE; ++Jt) {
        float *Panel = BPack + Jt * KcMax * NR;
        if (Transposed)
          packBtTile(A, K, M, Jt * NR, NR, Pc, Kc, Panel);
        else if (BTransposed)
          packBtTile(B, K, N, Jt * NR, NR, Pc, Kc, Panel);
        else
          packBTile(B, N, Jt * NR, NR, Pc, Kc, Panel);
      }
    };

    // Sweep the C tiles for a j-tile range crossed with an i-tile range,
    // blocking the i sweep so one packed A slice is reused across the
    // whole j range before moving on.
    auto Compute = [&](int64_t IB, int64_t IE, int64_t JB, int64_t JE) {
      for (int64_t It0 = IB; It0 < IE; It0 += MCTiles) {
        int64_t It1 = std::min(It0 + MCTiles, IE);
        for (int64_t Jt = JB; Jt < JE; ++Jt)
          for (int64_t It = It0; It < It1; ++It)
            runTile(MK, Kc, APack + It * KcMax * MR, BPack + Jt * KcMax * NR,
                    C, LdC, TM, TN, It * MR, Jt * NR, AccumBlock, Transposed);
      }
    };

    if (W == 1) {
      PackARange(0, MTiles);
      PackBRange(0, NTiles);
      Compute(0, MTiles, 0, NTiles);
      continue;
    }

    if (SplitN) {
      // Shared operand A is packed cooperatively first; each worker then
      // packs and consumes its own j-tile slice.
      Pool->parallelFor(0, W, [&](int64_t Slot) {
        int64_t TB, TE;
        getRange(MTiles, W, Slot, TB, TE);
        PackARange(TB, TE);
      });
      Pool->parallelFor(0, W, [&](int64_t Slot) {
        int64_t JB, JE;
        getRange(NTiles, W, Slot, JB, JE);
        PackBRange(JB, JE);
        Compute(0, MTiles, JB, JE);
      });
    } else {
      Pool->parallelFor(0, W, [&](int64_t Slot) {
        int64_t TB, TE;
        getRange(NTiles, W, Slot, TB, TE);
        PackBRange(TB, TE);
      });
      Pool->parallelFor(0, W, [&](int64_t Slot) {
        int64_t IB, IE;
        getRange(MTiles, W, Slot, IB, IE);
        PackARange(IB, IE);
        Compute(IB, IE, 0, NTiles);
      });
    }
  }
}

} // namespace

void primsel::sgemm(GemmVariant Variant, int64_t M, int64_t N, int64_t K,
                    const float *A, const float *B, float *C, int64_t LdC,
                    bool Accumulate, ThreadPool *Pool, int MaxThreads) {
  assert(M >= 0 && N >= 0 && K >= 0 && "negative GEMM dimensions");
  assert(LdC >= N && "C row stride shorter than row");
  if (M == 0 || N == 0)
    return;
  if (K == 0) {
    if (!Accumulate)
      for (int64_t I = 0; I < M; ++I)
        std::memset(C + I * LdC, 0, static_cast<size_t>(N) * sizeof(float));
    return;
  }

  if (Variant != GemmVariant::Naive) {
    packedGemm(Variant == GemmVariant::TransposedB, M, N, K, A, B, C, LdC,
               Accumulate, Pool, MaxThreads);
    return;
  }

  auto RunRow = [&](int64_t I) {
    float *CRow = C + I * LdC;
    if (!Accumulate)
      std::memset(CRow, 0, static_cast<size_t>(N) * sizeof(float));
    gemmRowNaive(I, N, K, A, B, CRow);
  };
  if (Pool && Pool->numThreads() > 1) {
    Pool->parallelFor(0, M, RunRow, MaxThreads);
    return;
  }
  for (int64_t I = 0; I < M; ++I)
    RunRow(I);
}

void primsel::sgemv(int64_t M, int64_t K, const float *A, const float *X,
                    float *Y, bool Accumulate, ThreadPool *Pool) {
  auto RunRow = [&](int64_t I) {
    const float *ARow = A + I * K;
    float Sum = 0.0f;
    for (int64_t P = 0; P < K; ++P)
      Sum += ARow[P] * X[P];
    Y[I] = Accumulate ? Y[I] + Sum : Sum;
  };
  if (Pool && Pool->numThreads() > 1) {
    Pool->parallelFor(0, M, RunRow);
    return;
  }
  for (int64_t I = 0; I < M; ++I)
    RunRow(I);
}
