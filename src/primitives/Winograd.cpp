//===- primitives/Winograd.cpp - Winograd convolution primitives ---------===//
//
// Part of primsel. See DESIGN.md.
//
// The Winograd family (paper §4): minimal-filtering convolution for K = 3
// and K = 5. Two-dimensional variants transform N x N input tiles
// (Y = A^T [(G g G^T) .* (B^T d B)] A) and batch the pointwise stage into
// one M x C x Tiles product per frequency -- fast but memory hungry. The
// one-dimensional variants apply F(m, r) along rows, once per kernel row:
// more floating point operations but a working set of one band of output
// rows (just enough pixels to fill a register tile) and its input rows,
// which is why the paper's optimizer prefers them on the small-cache ARM
// target (Figure 4). The vector-factor (vf4/vf8) variants change the tile
// blocking of the 2-D pointwise stage, mirroring the paper's 4-way NEON vs
// 8-way AVX2 Winograd codes; the 1-D pointwise stage runs on the packed
// GEMM macro-kernel for both.
//
//===----------------------------------------------------------------------===//

#include "primitives/Registry.h"

#include "gemm/Gemm.h"
#include "support/AlignedBuffer.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"
#include "winograd/ToomCook.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <vector>

using namespace primsel;

namespace {

struct WinoConfig {
  int64_t M;      ///< outputs per tile (per dimension)
  int64_t R;      ///< filter taps; must equal the scenario's K
  bool TwoD;      ///< 2D tiles vs row-wise 1D
  int TileBlock;  ///< pointwise-stage blocking: the "vector factor"
  Layout In;
  Layout Out;
  const char *Name;
};

/// ceil(A / B) for positive operands.
int64_t ceilDiv(int64_t A, int64_t B) { return (A + B - 1) / B; }

/// Output pixels a 1-D band aims for: the widest micro-kernel tile's NR
/// (AVX-512's 8 x 32), so one band's pointwise product spans a full tile.
constexpr int64_t BandPixels = 32;

/// Output rows per 1-D band, a function of shape only (workspaceBytes
/// reports the band footprint from it).
int64_t bandRows(int64_t Ho, int64_t Tw) {
  return std::min(Ho, ceilDiv(BandPixels, Tw));
}

/// Accumulate Mo[M][T] += U[M][C] x V[C][T] with a TB-wide tile block in
/// the inner loop (the "vector factor").
template <int TB>
void freqGemmAccum(const float *U, const float *V, float *Mo, int64_t M,
                   int64_t C, int64_t T) {
  for (int64_t F = 0; F < M; ++F) {
    float *Row = Mo + F * T;
    const float *URow = U + F * C;
    for (int64_t Ch = 0; Ch < C; ++Ch) {
      float UV = URow[Ch];
      const float *VRow = V + Ch * T;
      int64_t I = 0;
      for (; I + TB <= T; I += TB)
        for (int B = 0; B < TB; ++B)
          Row[I + B] += UV * VRow[I + B];
      for (; I < T; ++I)
        Row[I] += UV * VRow[I];
    }
  }
}

void runFreqGemm(int TileBlock, const float *U, const float *V, float *Mo,
                 int64_t M, int64_t C, int64_t T) {
  if (TileBlock == 8)
    freqGemmAccum<8>(U, V, Mo, M, C, T);
  else
    freqGemmAccum<4>(U, V, Mo, M, C, T);
}

/// Run Body(0) .. Body(Count - 1) on the context's pool under its worker
/// cap, or in order on the calling thread when there is no pool.
void forEachIndex(const RunContext &Ctx, int64_t Count,
                  const std::function<void(int64_t)> &Body) {
  if (Ctx.Pool && Ctx.Pool->numThreads() > 1)
    Ctx.Pool->parallelFor(0, Count, Body, Ctx.MaxThreads);
  else
    for (int64_t I = 0; I < Count; ++I)
      Body(I);
}

/// Copy \p In into \p P, a zero-margined Hp x Wp CHW tensor with the image
/// at offset (Pad, Pad). Reads go through logical strides, so an HWC input
/// pays its gather cost here. P is only (re)allocated when its shape
/// changed, so the instance-held scratch is reused run after run.
void makeWinogradInputInto(const Tensor3D &In, int64_t Pad, int64_t Hp,
                           int64_t Wp, Tensor3D &P) {
  if (P.channels() != In.channels() || P.height() != Hp || P.width() != Wp ||
      P.layout() != Layout::CHW)
    P = Tensor3D(In.channels(), Hp, Wp, Layout::CHW);
  P.zero();
  const int64_t SC = In.stride(Dim::C), SH = In.stride(Dim::H),
                SW = In.stride(Dim::W);
  const float *Src = In.data();
  float *Dst = P.data();
  for (int64_t Ch = 0; Ch < In.channels(); ++Ch)
    for (int64_t R = 0; R < In.height(); ++R) {
      float *DRow = Dst + (Ch * Hp + R + Pad) * Wp + Pad;
      const float *SRow = Src + Ch * SC + R * SH;
      if (SW == 1)
        std::memcpy(DRow, SRow,
                    static_cast<size_t>(In.width()) * sizeof(float));
      else
        for (int64_t Col = 0; Col < In.width(); ++Col)
          DRow[Col] = SRow[Col * SW];
    }
}

/// Weight-side artifact shared by both Winograd schedules: the Toom-Cook
/// transform matrices and the transformed kernel U (U = G g G^T per
/// frequency for 2D tiles, per kernel row for the 1D schedule).
struct WinoPrepared : PreparedKernel {
  WinoPrepared(const WinoConfig &Cfg, const ConvScenario &S,
               const Kernel4D &Weights)
      : T(generateWinograd(Cfg.M, Cfg.R)) {
    const int64_t N = T.N, R = Cfg.R;
    if (Cfg.TwoD) {
      U.reset(static_cast<size_t>(N * N * S.M * S.C));
      // U[freq][f][c] = (G g G^T)[i][j] for freq = i*N + j.
      std::vector<float> Tmp(static_cast<size_t>(N * R));
      for (int64_t F = 0; F < S.M; ++F)
        for (int64_t Ch = 0; Ch < S.C; ++Ch) {
          // Tmp = G (N x R) * g (R x R).
          for (int64_t I = 0; I < N; ++I)
            for (int64_t B = 0; B < R; ++B) {
              float Acc = 0.0f;
              for (int64_t A = 0; A < R; ++A)
                Acc += T.G[I * R + A] * Weights.at(F, Ch, A, B);
              Tmp[I * R + B] = Acc;
            }
          // u[i][j] = sum_b Tmp[i][b] * G[j][b].
          for (int64_t I = 0; I < N; ++I)
            for (int64_t J = 0; J < N; ++J) {
              float Acc = 0.0f;
              for (int64_t B = 0; B < R; ++B)
                Acc += Tmp[I * R + B] * T.G[J * R + B];
              U[((I * N + J) * S.M + F) * S.C + Ch] = Acc;
            }
        }
    } else {
      // U1[kr][freq][f][c] = (G g_row)[freq].
      U.reset(static_cast<size_t>(R * N * S.M * S.C));
      for (int64_t Kr = 0; Kr < R; ++Kr)
        for (int64_t F = 0; F < S.M; ++F)
          for (int64_t Ch = 0; Ch < S.C; ++Ch)
            for (int64_t I = 0; I < N; ++I) {
              float Acc = 0.0f;
              for (int64_t A = 0; A < R; ++A)
                Acc += T.G[I * R + A] * Weights.at(F, Ch, Kr, A);
              U[((Kr * N + I) * S.M + F) * S.C + Ch] = Acc;
            }
    }
  }

  size_t bytes() const override { return U.size() * sizeof(float); }

  WinogradTransform T;
  AlignedBuffer U;
};

class Wino2DInstance : public ConvInstance {
public:
  Wino2DInstance(const WinoConfig &Cfg, const ConvScenario &S,
                 std::shared_ptr<const WinoPrepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  WinoConfig Cfg;
  ConvScenario S;
  std::shared_ptr<const WinoPrepared> PK;
  Tensor3D PaddedScratch; ///< reused tile-margined input copy
  AlignedBuffer V;        ///< reused transformed-input scratch
  AlignedBuffer Mo;       ///< reused pointwise-product scratch
  Tensor3D NativeScratch; ///< reused output staging when layouts differ
};

void Wino2DInstance::run(const Tensor3D &In, Tensor3D &Out,
                         const RunContext &Ctx) {
  const WinogradTransform &T = PK->T;
  const AlignedBuffer &U = PK->U;
  const int64_t N = T.N, M2 = Cfg.M;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t Th = ceilDiv(Ho, M2), Tw = ceilDiv(Wo, M2);
  const int64_t NumTiles = Th * Tw;
  const int64_t Hp = Th * M2 + Cfg.R - 1, Wp = Tw * M2 + Cfg.R - 1;

  makeWinogradInputInto(In, S.Pad, Hp, Wp, PaddedScratch);
  const float *PD = PaddedScratch.data();

  if (V.size() < static_cast<size_t>(N * N * S.C * NumTiles))
    V.reset(static_cast<size_t>(N * N * S.C * NumTiles));
  if (Mo.size() < static_cast<size_t>(N * N * S.M * NumTiles))
    Mo.reset(static_cast<size_t>(N * N * S.M * NumTiles));
  Mo.fill(0.0f);

  // Input transform: V[freq][c][tile] = (B^T d B)[i][j].
  auto TransformChannel = [&](int64_t Ch) {
    std::vector<float> D(static_cast<size_t>(N * N));
    std::vector<float> Tmp(static_cast<size_t>(N * N));
    for (int64_t TileR = 0; TileR < Th; ++TileR)
      for (int64_t TileC = 0; TileC < Tw; ++TileC) {
        int64_t Tile = TileR * Tw + TileC;
        const float *Base =
            PD + (Ch * Hp + TileR * M2) * Wp + TileC * M2;
        for (int64_t I = 0; I < N; ++I)
          std::memcpy(&D[I * N], Base + I * Wp,
                      static_cast<size_t>(N) * sizeof(float));
        // Tmp = B^T * d.
        for (int64_t I = 0; I < N; ++I)
          for (int64_t J = 0; J < N; ++J) {
            float Acc = 0.0f;
            for (int64_t A = 0; A < N; ++A)
              Acc += T.BT[I * N + A] * D[A * N + J];
            Tmp[I * N + J] = Acc;
          }
        // v[i][j] = sum_b Tmp[i][b] * BT[j][b].
        for (int64_t I = 0; I < N; ++I)
          for (int64_t J = 0; J < N; ++J) {
            float Acc = 0.0f;
            for (int64_t B = 0; B < N; ++B)
              Acc += Tmp[I * N + B] * T.BT[J * N + B];
            V[((I * N + J) * S.C + Ch) * NumTiles + Tile] = Acc;
          }
      }
  };
  forEachIndex(Ctx, S.C, TransformChannel);

  // Pointwise stage, batched per frequency.
  auto FreqStage = [&](int64_t Freq) {
    runFreqGemm(Cfg.TileBlock, U.data() + Freq * S.M * S.C,
                V.data() + Freq * S.C * NumTiles,
                Mo.data() + Freq * S.M * NumTiles, S.M, S.C, NumTiles);
  };
  forEachIndex(Ctx, N * N, FreqStage);

  // Output transform into the native CHW layout, clipped at the edges.
  Layout Native = Layout::CHW;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    if (!NativeScratch.sameShape(Out) || NativeScratch.layout() != Native)
      NativeScratch = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeScratch;
  }
  float *OD = Target->data();

  auto InverseFilter = [&](int64_t F) {
    std::vector<float> Mm(static_cast<size_t>(N * N));
    std::vector<float> Tmp(static_cast<size_t>(M2 * N));
    for (int64_t Tile = 0; Tile < NumTiles; ++Tile) {
      for (int64_t I = 0; I < N; ++I)
        for (int64_t J = 0; J < N; ++J)
          Mm[I * N + J] =
              Mo[((I * N + J) * S.M + F) * NumTiles + Tile];
      // Tmp = A^T (m x N) * Mm.
      for (int64_t I = 0; I < M2; ++I)
        for (int64_t J = 0; J < N; ++J) {
          float Acc = 0.0f;
          for (int64_t A = 0; A < N; ++A)
            Acc += T.AT[I * N + A] * Mm[A * N + J];
          Tmp[I * N + J] = Acc;
        }
      int64_t TileR = Tile / Tw, TileC = Tile % Tw;
      for (int64_t I = 0; I < M2; ++I) {
        int64_t Row = TileR * M2 + I;
        if (Row >= Ho)
          break;
        float *ORow = OD + (F * Ho + Row) * Wo;
        for (int64_t J = 0; J < M2; ++J) {
          int64_t Col = TileC * M2 + J;
          if (Col >= Wo)
            break;
          float Acc = 0.0f;
          for (int64_t B = 0; B < N; ++B)
            Acc += Tmp[I * N + B] * T.AT[J * N + B];
          ORow[Col] = Acc;
        }
      }
    }
  };
  forEachIndex(Ctx, S.M, InverseFilter);

  if (Target != &Out)
    runTransform(*Target, Out);
}

class Wino1DInstance : public ConvInstance {
public:
  Wino1DInstance(const WinoConfig &Cfg, const ConvScenario &S,
                 std::shared_ptr<const WinoPrepared> PK)
      : Cfg(Cfg), S(S), PK(std::move(PK)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override;

private:
  WinoConfig Cfg;
  ConvScenario S;
  std::shared_ptr<const WinoPrepared> PK;
  Tensor3D PaddedScratch; ///< reused tile-margined input copy
  AlignedBuffer V;        ///< one band's transformed input rows
  AlignedBuffer Mo;       ///< one band's pointwise products
  Tensor3D NativeScratch; ///< reused output staging when layouts differ
};

void Wino1DInstance::run(const Tensor3D &In, Tensor3D &Out,
                         const RunContext &Ctx) {
  const WinogradTransform &T = PK->T;
  const AlignedBuffer &U = PK->U;
  const int64_t N = T.N, M1 = Cfg.M, R = Cfg.R;
  const int64_t Ho = S.outHeight(), Wo = S.outWidth();
  const int64_t Tw = ceilDiv(Wo, M1);
  const int64_t Hb = bandRows(Ho, Tw);
  const int64_t InRows = Hb + R - 1;
  // Rows are streamed band by band, so only the width needs tile margin.
  const int64_t Hp = S.H + 2 * S.Pad;
  const int64_t Wp = Tw * M1 + R - 1;

  makeWinogradInputInto(In, S.Pad, Hp, Wp, PaddedScratch);
  const float *PD = PaddedScratch.data();

  // V[freq][row][tile][c] over the band's input rows: for each kernel row
  // kr, the rows kr .. kr + Hb - 1 form one contiguous (pixels x C) B^T.
  // Mo[freq][f][pixel] holds the products, pixel = row * Tw + tile.
  const int64_t VFreq = InRows * Tw * S.C, MoFreq = S.M * Hb * Tw;
  if (V.size() < static_cast<size_t>(N * VFreq))
    V.reset(static_cast<size_t>(N * VFreq));
  if (Mo.size() < static_cast<size_t>(N * MoFreq))
    Mo.reset(static_cast<size_t>(N * MoFreq));

  Layout Native = Layout::CHW;
  Tensor3D *Target = &Out;
  if (Out.layout() != Native) {
    if (!NativeScratch.sameShape(Out) || NativeScratch.layout() != Native)
      NativeScratch = Tensor3D(S.M, Ho, Wo, Native);
    Target = &NativeScratch;
  }
  float *OD = Target->data();

  for (int64_t Row0 = 0; Row0 < Ho; Row0 += Hb) {
    const int64_t Rows = std::min(Hb, Ho - Row0);
    const int64_t Pixels = Rows * Tw;

    // Input transform, each padded input row once: v = B^T d per tile.
    forEachIndex(Ctx, Rows + R - 1, [&](int64_t Row) {
      const float *IRow = PD + (Row0 + Row) * Wp;
      for (int64_t Tile = 0; Tile < Tw; ++Tile)
        for (int64_t Ch = 0; Ch < S.C; ++Ch) {
          const float *D = IRow + Ch * Hp * Wp + Tile * M1;
          float *VOut = V.data() + (Row * Tw + Tile) * S.C + Ch;
          for (int64_t I = 0; I < N; ++I) {
            float Acc = 0.0f;
            for (int64_t A = 0; A < N; ++A)
              Acc += T.BT[I * N + A] * D[A];
            VOut[I * VFreq] = Acc;
          }
        }
    });

    // Pointwise stage: per frequency, Mo = sum_kr U[kr] x V(rows + kr)^T on
    // the packed macro-kernel, serial inside the worker.
    forEachIndex(Ctx, N, [&](int64_t Freq) {
      const float *VF = V.data() + Freq * VFreq;
      float *MF = Mo.data() + Freq * MoFreq;
      for (int64_t Kr = 0; Kr < R; ++Kr)
        sgemm(GemmVariant::TransposedB, S.M, Pixels, S.C,
              U.data() + (Kr * N + Freq) * S.M * S.C, VF + Kr * Tw * S.C, MF,
              Pixels, /*Accumulate=*/Kr > 0);
    });

    // Inverse transform: y = A^T mvec per (filter, row, tile).
    forEachIndex(Ctx, S.M, [&](int64_t F) {
      for (int64_t Row = 0; Row < Rows; ++Row) {
        float *ORow = OD + (F * Ho + Row0 + Row) * Wo;
        for (int64_t Tile = 0; Tile < Tw; ++Tile) {
          const float *MVec = Mo.data() + F * Pixels + Row * Tw + Tile;
          for (int64_t I = 0; I < M1; ++I) {
            int64_t Col = Tile * M1 + I;
            if (Col >= Wo)
              break;
            float Acc = 0.0f;
            for (int64_t A = 0; A < N; ++A)
              Acc += T.AT[I * N + A] * MVec[A * MoFreq];
            ORow[Col] = Acc;
          }
        }
      }
    });
  }

  if (Target != &Out)
    runTransform(*Target, Out);
}

class WinogradPrimitive : public ConvPrimitive {
public:
  explicit WinogradPrimitive(const WinoConfig &Cfg) : Cfg(Cfg) {}

  std::string name() const override { return Cfg.Name; }
  ConvFamily family() const override { return ConvFamily::Winograd; }
  Layout inputLayout() const override { return Cfg.In; }
  Layout outputLayout() const override { return Cfg.Out; }

  bool supports(const ConvScenario &S) const override {
    return S.K == Cfg.R && S.Stride == 1 && S.outHeight() >= 1 &&
           S.outWidth() >= 1;
  }

  size_t workspaceBytes(const ConvScenario &S) const override {
    const int64_t N = Cfg.M + Cfg.R - 1;
    const int64_t Ho = S.outHeight(), Wo = S.outWidth();
    if (Cfg.TwoD) {
      int64_t Tiles = ceilDiv(Ho, Cfg.M) * ceilDiv(Wo, Cfg.M);
      return static_cast<size_t>(N) * N * (S.C + S.M) * Tiles *
             sizeof(float);
    }
    // One band: its transformed input rows and its products.
    int64_t Tw = ceilDiv(Wo, Cfg.M);
    int64_t Hb = bandRows(Ho, Tw);
    return static_cast<size_t>(N) * Tw * (S.C * (Hb + Cfg.R - 1) + S.M * Hb) *
           sizeof(float);
  }

  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override {
    assert(supports(S) && "preparing unsupported scenario");
    return std::make_shared<WinoPrepared>(Cfg, S, Weights);
  }

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override {
    assert(supports(S) && "binding unsupported scenario");
    assert(dynamic_cast<const WinoPrepared *>(Prepared.get()) &&
           "bind() requires a kernel from this primitive's prepare()");
    auto PK = std::static_pointer_cast<const WinoPrepared>(std::move(Prepared));
    if (Cfg.TwoD)
      return std::make_unique<Wino2DInstance>(Cfg, S, std::move(PK));
    return std::make_unique<Wino1DInstance>(Cfg, S, std::move(PK));
  }

private:
  WinoConfig Cfg;
};

} // namespace

void primsel::registerWinogradFamily(PrimitiveLibrary &Lib) {
  const WinoConfig Configs[] = {
      // 2D, CHW input, both vector factors, K = 3 and K = 5 tiles.
      {2, 3, true, 4, Layout::CHW, Layout::CHW, "wino2d-m2r3-vf4-chw-chw"},
      {2, 3, true, 8, Layout::CHW, Layout::CHW, "wino2d-m2r3-vf8-chw-chw"},
      {4, 3, true, 4, Layout::CHW, Layout::CHW, "wino2d-m4r3-vf4-chw-chw"},
      {4, 3, true, 8, Layout::CHW, Layout::CHW, "wino2d-m4r3-vf8-chw-chw"},
      {2, 5, true, 4, Layout::CHW, Layout::CHW, "wino2d-m2r5-vf4-chw-chw"},
      {2, 5, true, 8, Layout::CHW, Layout::CHW, "wino2d-m2r5-vf8-chw-chw"},
      {3, 5, true, 4, Layout::CHW, Layout::CHW, "wino2d-m3r5-vf4-chw-chw"},
      {3, 5, true, 8, Layout::CHW, Layout::CHW, "wino2d-m3r5-vf8-chw-chw"},
      // 2D, HWC input (pays a gather in the pad copy).
      {2, 3, true, 8, Layout::HWC, Layout::CHW, "wino2d-m2r3-vf8-hwc-chw"},
      {4, 3, true, 8, Layout::HWC, Layout::CHW, "wino2d-m4r3-vf8-hwc-chw"},
      {2, 5, true, 8, Layout::HWC, Layout::CHW, "wino2d-m2r5-vf8-hwc-chw"},
      {3, 5, true, 8, Layout::HWC, Layout::CHW, "wino2d-m3r5-vf8-hwc-chw"},
      // 2D with HWC output.
      {2, 3, true, 8, Layout::CHW, Layout::HWC, "wino2d-m2r3-vf8-chw-hwc"},
      {4, 3, true, 8, Layout::CHW, Layout::HWC, "wino2d-m4r3-vf8-chw-hwc"},
      // 1D row-wise, CHW input.
      {2, 3, false, 4, Layout::CHW, Layout::CHW, "wino1d-m2r3-vf4-chw-chw"},
      {2, 3, false, 8, Layout::CHW, Layout::CHW, "wino1d-m2r3-vf8-chw-chw"},
      {4, 3, false, 4, Layout::CHW, Layout::CHW, "wino1d-m4r3-vf4-chw-chw"},
      {4, 3, false, 8, Layout::CHW, Layout::CHW, "wino1d-m4r3-vf8-chw-chw"},
      {2, 5, false, 4, Layout::CHW, Layout::CHW, "wino1d-m2r5-vf4-chw-chw"},
      {2, 5, false, 8, Layout::CHW, Layout::CHW, "wino1d-m2r5-vf8-chw-chw"},
      {3, 5, false, 4, Layout::CHW, Layout::CHW, "wino1d-m3r5-vf4-chw-chw"},
      {3, 5, false, 8, Layout::CHW, Layout::CHW, "wino1d-m3r5-vf8-chw-chw"},
      // 1D, HWC input.
      {2, 3, false, 8, Layout::HWC, Layout::CHW, "wino1d-m2r3-vf8-hwc-chw"},
      {4, 3, false, 8, Layout::HWC, Layout::CHW, "wino1d-m4r3-vf8-hwc-chw"},
      {2, 5, false, 8, Layout::HWC, Layout::CHW, "wino1d-m2r5-vf8-hwc-chw"},
      {3, 5, false, 8, Layout::HWC, Layout::CHW, "wino1d-m3r5-vf8-hwc-chw"},
      // 1D with HWC output.
      {2, 3, false, 8, Layout::CHW, Layout::HWC, "wino1d-m2r3-vf8-chw-hwc"},
      {4, 3, false, 8, Layout::CHW, Layout::HWC, "wino1d-m4r3-vf8-chw-hwc"},
      // vf4 counterparts of the HWC-input variants.
      {2, 3, true, 4, Layout::HWC, Layout::CHW, "wino2d-m2r3-vf4-hwc-chw"},
      {4, 3, true, 4, Layout::HWC, Layout::CHW, "wino2d-m4r3-vf4-hwc-chw"},
      {2, 3, false, 4, Layout::HWC, Layout::CHW, "wino1d-m2r3-vf4-hwc-chw"},
      {4, 3, false, 4, Layout::HWC, Layout::CHW, "wino1d-m4r3-vf4-hwc-chw"},
  };
  for (const WinoConfig &Cfg : Configs)
    Lib.add(std::make_unique<WinogradPrimitive>(Cfg));
}
