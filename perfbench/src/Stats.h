//===- perfbench/src/Stats.h - The benchmark's own statistics --*- C++ -*-===//
//
// Part of primsel's benchmark. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Percentiles, window medians, the rate ladder's monotone fit, open-loop
/// latency and arrival schedules. These are kept in
/// the benchmark rather than taken from the library, so a change to the
/// library's own helpers cannot move the figures that judge it. The
/// self-test (selftest.cpp) pins them against the library's definitions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the element at
/// index round(P * (N - 1)), the definition primsel::percentileOfSorted
/// uses. 0 for an empty sample; P is clamped to [0, 1].
inline double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  P = std::min(1.0, std::max(0.0, P));
  size_t Index = static_cast<size_t>(
      std::llround(P * static_cast<double>(Sorted.size() - 1)));
  return Sorted[Index];
}

/// Sorted copy's nearest-rank median.
inline double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return percentile(Samples, 0.5);
}

/// The percentiles every latency report prints.
struct Summary {
  size_t Count = 0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  double P999 = 0.0;
};

inline Summary summarize(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  Summary S;
  S.Count = Samples.size();
  S.P50 = percentile(Samples, 0.50);
  S.P90 = percentile(Samples, 0.90);
  S.P99 = percentile(Samples, 0.99);
  S.P999 = percentile(Samples, 0.999);
  return S;
}

/// Split timed samples into \p Windows equal windows of a phase lasting
/// \p SpanS seconds. Each sample is (seconds from the phase start, value);
/// samples at or past the end fall into the last window.
inline std::vector<std::vector<double>>
splitWindows(const std::vector<std::pair<double, double>> &Samples,
             double SpanS, unsigned Windows) {
  std::vector<std::vector<double>> Out(std::max(1u, Windows));
  for (const auto &[T, V] : Samples) {
    double Pos = SpanS > 0.0 ? T / SpanS * static_cast<double>(Out.size()) : 0;
    size_t W = Pos <= 0.0 ? 0 : static_cast<size_t>(Pos);
    Out[std::min(W, Out.size() - 1)].push_back(V);
  }
  return Out;
}

/// Median over the non-empty windows of \p Stat applied to each window. A
/// host stall that hits one window of a run leaves the run's figure alone.
template <typename F>
double windowMedian(const std::vector<std::vector<double>> &Windows,
                    F &&Stat) {
  std::vector<double> PerWindow;
  for (const std::vector<double> &W : Windows)
    if (!W.empty())
      PerWindow.push_back(Stat(W));
  return median(std::move(PerWindow));
}

/// Non-decreasing fit of \p V by pooling adjacent violators, each pool
/// taking its nearest-rank median. A single outlier among its neighbours,
/// high or low, does not move the fit.
inline std::vector<double> monotoneFit(const std::vector<double> &V) {
  std::vector<std::vector<double>> Pools;
  for (double X : V) {
    Pools.push_back({X});
    while (Pools.size() > 1 &&
           median(Pools[Pools.size() - 2]) > median(Pools.back())) {
      std::vector<double> &Left = Pools[Pools.size() - 2];
      Left.insert(Left.end(), Pools.back().begin(), Pools.back().end());
      Pools.pop_back();
    }
  }
  std::vector<double> Fit;
  for (const std::vector<double> &P : Pools)
    Fit.insert(Fit.end(), P.size(), median(P));
  return Fit;
}

/// The rate at which \p Values, measured at the ascending \p Rates, first
/// exceed \p Limit, read through their monotone fit and interpolated
/// linearly between the last point under the limit and the first one over
/// it. Scaled proportionally when even the first point is over the limit;
/// the last rate when none is.
inline double crossingRate(const std::vector<double> &Rates,
                           const std::vector<double> &Values, double Limit) {
  std::vector<double> Fit = monotoneFit(Values);
  for (size_t I = 0; I < Fit.size(); ++I) {
    if (Fit[I] <= Limit)
      continue;
    if (I == 0)
      return Rates[0] * Limit / Fit[0];
    return Rates[I - 1] + (Rates[I] - Rates[I - 1]) * (Limit - Fit[I - 1]) /
                              (Fit[I] - Fit[I - 1]);
  }
  return Rates.empty() ? 0.0 : Rates.back();
}

/// Latency of one open-loop request measured from the time it was due, not
/// from when the generator got round to sending it: the generator's lag
/// (Send - Due) plus the server's admission-to-completion time. A stalled
/// generator therefore shows up in the latency of every request it delayed.
inline double dueLatencyMs(int64_t DueNs, int64_t SendNs, int64_t ServiceNs) {
  return static_cast<double>(SendNs - DueNs + ServiceNs) / 1e6;
}

/// Poisson arrival times (ns from the schedule start) for \p Seconds of
/// traffic at \p RatePerSec. The count is fixed at round(Rate * Seconds)
/// and the exponential gaps are rescaled so the last arrival lands at
/// \p Seconds: every seed offers exactly the same load, and only the
/// spacing varies. Uses only the standard engine (not a library RNG), so a
/// seed gives the same schedule on every commit.
inline std::vector<int64_t> arrivalSchedule(uint64_t Seed, double RatePerSec,
                                            double Seconds) {
  size_t Count = static_cast<size_t>(std::llround(RatePerSec * Seconds));
  std::vector<int64_t> Due;
  if (Count == 0)
    return Due;
  std::mt19937_64 Gen(Seed);
  std::vector<double> At(Count);
  double T = 0.0;
  for (size_t I = 0; I < Count; ++I) {
    double U = static_cast<double>(Gen() >> 11) * 0x1.0p-53; // [0, 1)
    T += -std::log1p(-U);
    At[I] = T;
  }
  double Scale = Seconds * 1e9 / T;
  Due.reserve(Count);
  for (double A : At)
    Due.push_back(static_cast<int64_t>(A * Scale));
  return Due;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
