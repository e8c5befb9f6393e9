//===- perfbench/src/main.cpp - The benchmark program ---------------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   halo_perfbench --workload suite-exec|serve-small
///                  --seed N --seconds S --trace 0|1
///                  [--trace-out FILE] [--commit ID]
///
/// Runs one workload and prints, last, one JSON line: correct, attempted,
/// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
/// of a traced run (--trace 1). Lines before it record the environment and
/// every metric by name with its unit. perfbench/run.py builds this program
/// and calls it; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "halo_perfbench: %s\nusage: halo_perfbench --workload "
               "suite-exec|serve-small --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--commit ID]\n",
               Why);
  return 2;
}

void printMetrics(const char *Kind, const std::map<std::string, Metric> &M) {
  for (const auto &KV : M)
    std::printf("%-10s %-34s %22.6f %s\n", Kind, KV.first.c_str(),
                KV.second.Value, KV.second.Unit.c_str());
}

void printJson(const RunResult &R, const std::map<std::string, Metric> &M) {
  bool Correct = R.Attempted > 0 && R.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &KV : M) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", KV.first.c_str(), KV.second.Value,
                KV.second.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  std::string Commit = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && *End == '\0' && C.Seconds > 0;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      C.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--trace-out") {
      C.TraceOut = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  C.NProc = std::max(1u, std::thread::hardware_concurrency());

  std::printf("# env: nproc=%u compiler=\"%s\" build_type=%s seed=%llu "
              "commit=%s workload=%s seconds=%g trace=%d\n",
              C.NProc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(C.Seed), Commit.c_str(),
              C.Workload.c_str(), C.Seconds, C.Trace ? 1 : 0);
  std::fflush(stdout);

  RunResult R;
  if (C.Workload == "suite-exec")
    R = runSuiteExec(C);
  else if (C.Workload == "serve-small")
    R = runServeSmall(C);
  else
    return usage(("unknown workload " + C.Workload).c_str());

  double FailPct = R.Attempted ? 100.0 * static_cast<double>(R.Failed) /
                                     static_cast<double>(R.Attempted)
                               : 100.0;
  R.e2e("ok_pct", 100.0 - FailPct, "%");
  std::printf("# attempted %llu, failed %llu (fail_pct %.4f %%)\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), FailPct);
  printMetrics("end-to-end", R.EndToEnd);
  if (C.Trace) {
    addSpanMetrics(R);
    fillPerLayerDefaults(R);
    printMetrics("per-layer", R.PerLayer);
    if (!C.TraceOut.empty()) {
      char Meta[512];
      std::snprintf(Meta, sizeof(Meta),
                    "{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
                    "\"compiler\":\"%s\",\"build_type\":\"%s\","
                    "\"commit\":\"%s\"}",
                    C.Workload.c_str(),
                    static_cast<unsigned long long>(C.Seed), C.NProc,
                    PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, Commit.c_str());
      if (!Tracer::get().writeChromeJson(C.TraceOut, Meta)) {
        std::fprintf(stderr, "halo_perfbench: cannot write %s\n",
                     C.TraceOut.c_str());
        return 1;
      }
      std::printf("# trace: %zu spans -> %s\n", Tracer::get().size(),
                  C.TraceOut.c_str());
    }
  }
  printJson(R, C.Trace ? R.PerLayer : R.EndToEnd);
  return 0;
}
