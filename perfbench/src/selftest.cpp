//===- perfbench/src/selftest.cpp - Self-test of the benchmark statistics -===//
//
// Part of primsel's benchmark. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the statistics the benchmark computes on its own: nearest-rank
/// percentiles agree with primsel::percentileOfSorted, open-loop latency
/// counts from the due time on a synthetic late schedule, per-window
/// medians ride out one stalled window, the rate ladder's monotone fit
/// rides out one outlying rung, and arrival schedules are
/// deterministic with a fixed count. Run it through
/// `python3 perfbench/run.py --self-test`; exits non-zero on a failure.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "support/Stats.h"

#include <cstdio>
#include <random>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

void percentilesAgreeWithLibrary() {
  std::mt19937_64 Gen(7);
  for (size_t N : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1001u}) {
    std::vector<double> V(N);
    for (double &X : V)
      X = static_cast<double>(Gen() % 100000) / 7.0;
    std::sort(V.begin(), V.end());
    for (double P : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0})
      check(percentile(V, P) == primsel::percentileOfSorted(V, P),
            "percentile agrees with percentileOfSorted");
  }
  check(percentile({}, 0.5) == 0.0, "empty sample gives 0");
  check(percentile({1.0, 2.0}, 2.0) == 2.0, "P clamps to 1");
  std::vector<double> Ten{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  Summary S = summarize(Ten);
  check(S.Count == 10 && S.P50 == 6.0 && S.P90 == 9.0 && S.P99 == 10.0,
        "nearest-rank summary of 1..10");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median sorts its input");
}

void dueTimeLatencyOnLateSchedule() {
  // Requests due every 10 ms; the generator stalls 35 ms before the second
  // send and then sends the rest as fast as it can. Each takes 4 ms of
  // service. Latency from the due time must include the stall on every
  // delayed request, while admission-to-completion would read 4 ms for all.
  const int64_t Ms = 1000000;
  std::vector<int64_t> Due{0, 10 * Ms, 20 * Ms, 30 * Ms, 40 * Ms};
  std::vector<int64_t> Send{0, 45 * Ms, 45 * Ms, 46 * Ms, 46 * Ms};
  std::vector<double> Expect{4.0, 39.0, 29.0, 20.0, 10.0};
  for (size_t I = 0; I < Due.size(); ++I)
    check(dueLatencyMs(Due[I], Send[I], 4 * Ms) == Expect[I],
          "latency counts from the due time");
  std::vector<double> Lat;
  for (size_t I = 0; I < Due.size(); ++I)
    Lat.push_back(dueLatencyMs(Due[I], Send[I], 4 * Ms));
  check(summarize(Lat).P90 == 39.0, "p90 sees the stalled request");
}

void windowMedianIgnoresOneStalledWindow() {
  // Ten seconds of 10 ms requests, one every 10 ms; a host stall makes every
  // request in the third two-second window take 200 ms.
  std::vector<std::pair<double, double>> Timed;
  for (int I = 0; I < 1000; ++I) {
    double T = I * 0.01;
    Timed.push_back({T, T >= 4.0 && T < 6.0 ? 200.0 : 10.0});
  }
  std::vector<std::vector<double>> W = splitWindows(Timed, 10.0, 5);
  check(W.size() == 5 && W[0].size() == 200 && W[4].size() == 200,
        "samples split into equal windows");
  auto P90 = [](const std::vector<double> &V) { return summarize(V).P90; };
  check(windowMedian(W, P90) == 10.0, "one stalled window leaves the median");
  std::vector<double> All;
  for (const auto &S : Timed)
    All.push_back(S.second);
  check(summarize(All).P90 == 200.0, "the whole-run p90 sees the stall");
  check(splitWindows({{12.0, 1.0}}, 10.0, 5)[4].size() == 1,
        "late samples fall into the last window");
}

void ladderCrossingIsMonotone() {
  std::vector<double> Sorted{1, 2, 2, 5};
  check(monotoneFit(Sorted) == Sorted, "an ascending series fits itself");
  check(monotoneFit({24, 120, 33, 48}) == std::vector<double>({24, 48, 48, 48}),
        "one high outlier is pooled away");
  check(monotoneFit({24, 30, 5, 40}) == std::vector<double>({24, 30, 30, 40}),
        "one low outlier is pooled away");
  std::vector<double> Rates{100, 150, 175, 200, 225, 250};
  check(crossingRate(Rates, {22, 24, 30, 40, 60, 200}, 50.0) == 212.5,
        "crossing interpolates between the rungs around the limit");
  check(crossingRate(Rates, {22, 24, 70, 30, 40, 60}, 50.0) == 237.5,
        "a stalled rung below the knee does not end the ladder");
  check(crossingRate(Rates, {22, 24, 30, 70, 20, 200}, 50.0) == 187.5,
        "a lucky rung above the knee does not extend the ladder");
  check(crossingRate(Rates, {80, 90, 100, 110, 120, 130}, 50.0) == 62.5,
        "a first rung over the limit scales down");
  check(crossingRate(Rates, {1, 2, 3, 4, 5, 6}, 50.0) == 250.0,
        "no crossing reads the top rung");
}

void schedulesAreSeededAndExact() {
  std::vector<int64_t> A = arrivalSchedule(11, 150.0, 4.0);
  std::vector<int64_t> B = arrivalSchedule(11, 150.0, 4.0);
  std::vector<int64_t> C = arrivalSchedule(12, 150.0, 4.0);
  check(A == B, "same seed, same schedule");
  check(A != C, "another seed, another schedule");
  check(A.size() == 600 && C.size() == 600, "count is rate x seconds");
  check(std::is_sorted(A.begin(), A.end()), "arrivals ascend");
  check(A.back() > 3990000000 && A.back() <= 4000000000,
        "last arrival lands at the end of the window");
  check(arrivalSchedule(1, 0.1, 1.0).empty(), "zero arrivals is empty");
}

} // namespace

int main() {
  percentilesAgreeWithLibrary();
  dueTimeLatencyOnLateSchedule();
  windowMedianIgnoresOneStalledWindow();
  ladderCrossingIsMonotone();
  schedulesAreSeededAndExact();
  if (Failures) {
    std::printf("perfbench self-test: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
