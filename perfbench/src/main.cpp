//===- perfbench/src/main.cpp - Benchmark program entry point -------------===//
//
// Part of primsel's benchmark. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--commit ID] [--trace-out PATH]
///
/// Runs one workload and prints every metric by name with its unit, then,
/// as the last line, one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. Untraced runs report the end-to-end metrics, traced runs
/// the per-layer ones. Exits 1 when an output is wrong, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--trace-out PATH]\nworkloads:");
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("metric %-34s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

void printJson(const Report &R, const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  bool HaveWorkload = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *Val = Argv[++I];
    uint64_t N = 0;
    if (Arg == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      Opts.Seed = N;
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N > 0 &&
               N <= 600) {
      Opts.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace" && parseUnsigned(Val, N) && N <= 1) {
      Opts.Trace = N == 1;
      HaveTrace = true;
    } else if (Arg == "--commit") {
      Opts.Commit = Val;
    } else if (Arg == "--trace-out") {
      Opts.TracePath = Val;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || !HaveTrace)
    return usage();

  Report R;
  if (!runWorkload(Opts, R))
    return 1;
  std::fflush(stdout);
  const std::vector<Metric> &Ms = Opts.Trace ? R.PerLayer : R.EndToEnd;
  printMetrics(Ms);
  std::printf("# requests: %llu attempted, %llu failed; outputs %s\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Correct && R.Failed == 0 ? "correct" : "WRONG");
  printJson(R, Ms);
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
