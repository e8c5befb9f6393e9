//===- perfbench/src/Common.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the two workloads share: the run configuration, the metric
/// sink, order statistics, seeded datasets and the output check, the
/// resident-set sampler, and the span tracer. The benchmark measures the
/// program only from outside: every span wraps a call the benchmark makes
/// into a layer's public functions, and every counter is one those calls
/// return.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "analysis/Analyzer.h"
#include "rt/Memory.h"
#include "session/Session.h"
#include "suite/Suite.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using namespace halo;

//===----------------------------------------------------------------------===//
// Run configuration and results
//===----------------------------------------------------------------------===//

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Chrome trace-event JSON path (traced runs).
  unsigned NProc = 1;   ///< Hardware threads; no run uses more.
};

/// One metric value with its unit, as printed in the result line.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run produced. End-to-end metrics come from the
/// untraced measurement; per-layer metrics from the traced one.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;

  void e2e(const std::string &Name, double V, const std::string &Unit) {
    EndToEnd[Name] = Metric{V, Unit};
  }
  void layer(const std::string &Name, double V, const std::string &Unit) {
    PerLayer[Name] = Metric{V, Unit};
  }
  /// Records the outcome of one operation.
  void op(bool Ok) {
    ++Attempted;
    Failed += !Ok;
  }
};

//===----------------------------------------------------------------------===//
// Clocks and order statistics
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double nowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// The \p Q-quantile (0..1) of \p V by linear interpolation between
/// closest ranks; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) {
  return quantile(V, 0.5);
}
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

/// Resident set size of this process right now, in MiB.
double residentMiB();

/// Highest resident set seen by sample() — the peak_rss_mb metric. The
/// measured phase samples at every operation boundary, so set-up
/// replicas that were torn down before it do not count.
class RssPeak {
public:
  void sample() {
    double R = residentMiB();
    if (R > Peak)
      Peak = R;
  }
  double peak() const { return Peak; }

private:
  double Peak = 0;
};

/// Median of the durations of \p Replicas runs of \p SetUp(I), run on
/// one thread each, at most \p Threads at a time. What the caller keeps
/// of each replica is up to \p SetUp's capture.
double medianConcurrentSetup(unsigned Replicas, unsigned Threads,
                             const std::function<void(unsigned)> &SetUp);

//===----------------------------------------------------------------------===//
// Seeded inputs and the output check
//===----------------------------------------------------------------------===//

/// 64-bit mixer (splitmix64): the benchmark's only source of randomness.
inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

class Rng {
public:
  explicit Rng(uint64_t Seed) : S(mix64(Seed)) {}
  uint64_t next() { return S = mix64(S); }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// The benchmark's dataset for \p B at \p Scale: the suite's own Setup
/// (bindings, index arrays and array shapes), with every data array
/// filled from \p Seed. Control flow and subscripts depend only on the
/// bindings, so the fill changes values, never which elements a loop
/// touches.
void makeDataset(suite::Benchmark &B, int64_t Scale, uint64_t Seed,
                 rt::Memory &M, sym::Bindings &Bd);

/// Deep copy of a dataset's memory (rt::Memory is not copyable).
void copyMemory(const rt::Memory &From, rt::Memory &To);

/// Arrays whose final values may differ by float reassociation: the
/// reduction targets of \p Plan.
std::vector<sym::SymbolId> reductionTargets(const analysis::LoopPlan &Plan);

/// The output check: \p Got must equal the sequential reference \p Want
/// exactly, except for a 1e-9 relative tolerance on reduction targets
/// (the same rule tests/suite_test.cpp applies).
bool sameMemory(const rt::Memory &Want, const rt::Memory &Got,
                const std::vector<sym::SymbolId> &Reductions);

/// Probe options exactly as bench/BenchUtil.h prepareBenchmark uses them.
inline analysis::AnalyzerOptions probeOptions(const suite::LoopSpec &LS,
                                              const sym::Bindings &Probe) {
  analysis::AnalyzerOptions Opts;
  Opts.RuntimeTests = true;
  Opts.Probe = &Probe;
  Opts.HoistableContext = LS.Hoistable;
  return Opts;
}

/// Runtime-test time of one execution (the RTov numerator).
inline double testSeconds(const rt::ExecStats &St) {
  return St.PredicateSeconds + St.CivSliceSeconds + St.ExactTestSeconds +
         St.BoundsCompSeconds;
}

/// The benchmarks the paper reports a runtime-test overhead for
/// (bench/rtov_overhead.cpp's table): rt.rtov_pct.<name> covers these.
const std::vector<std::string> &paperRtovBenchmarks();

/// Names of every suite benchmark, in suite order.
std::vector<std::string> suiteBenchmarkNames();

/// The per-layer metrics every workload reports: counters a layer call
/// returned, direct-call timings, and self time per layer. Absent keys
/// read 0 — a layer the workload bypasses did no work.
void fillPerLayerDefaults(RunResult &R);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. A span covers one call the benchmark makes
/// into a layer ("<layer>.<call>"); its parent is the span open on the
/// same thread when it began, and every span of one request shares that
/// request's id. Disabled, a span costs one relaxed load.
class Tracer {
public:
  struct Event {
    std::string Name;
    double Start = 0, End = 0;
    uint64_t Id = 0, Parent = 0, Req = 0;
    unsigned Tid = 0;
  };

  static Tracer &get();
  bool enabled() const { return On.load(std::memory_order_relaxed); }
  void enable(bool E) { On.store(E, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id.
  uint64_t begin(double &Start, uint64_t &Parent);
  void end(const char *Name, uint64_t Id, uint64_t Parent, uint64_t Req,
           double Start);
  /// Records a span that did not run as a scope on the recording thread
  /// (a served request, reconstructed from its timestamps). Returns its
  /// id, assigning one when \p E has none.
  uint64_t add(Event E);

  /// Self time (span minus its children) summed per layer.
  std::map<std::string, double> selfSecondsByLayer() const;
  size_t size() const;

  /// Writes every span as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool writeChromeJson(const std::string &Path, const std::string &Meta) const;

private:
  std::atomic<bool> On{false};
  mutable std::mutex M;
  std::vector<Event> Events;
  uint64_t NextId = 1;
};

/// RAII span over one layer call. A null \p Name records nothing (a call
/// left out of a sampled trace).
class Span {
public:
  Span(const char *Name, uint64_t Req = 0) : Name(Name), Req(Req) {
    if (Name && Tracer::get().enabled())
      Id = Tracer::get().begin(Start, Parent);
  }
  ~Span() {
    if (Id)
      Tracer::get().end(Name, Id, Parent, Req, Start);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Req;
  uint64_t Id = 0, Parent = 0;
  double Start = 0;
};

//===----------------------------------------------------------------------===//
// Direct layer probes (traced runs)
//===----------------------------------------------------------------------===//

/// Analyzes every suite loop once more in fresh contexts, calling the
/// analysis and summary layers directly (HybridAnalyzer::analyze,
/// SummaryBuilder::summarizeIteration), so their cost is attributed to
/// them rather than to Session::prepare.
void probeAnalysisLayers(RunResult &R, int64_t Scale, uint64_t Seed);

/// Calls the lowering and evaluation layers directly on \p Plans (per
/// benchmark of \p Bs, in loop order): PredCompileCache::get and
/// CompiledPred::eval per cascade stage, USRCompileCache::get and
/// HoistCache::emptiness per independence USR, rt::interpCivSlice and
/// Session::computeBounds where the plan needs them, plus a ThreadPool
/// round trip at nproc.
void probeRuntimeLayers(RunResult &R,
                        std::vector<std::unique_ptr<suite::Benchmark>> &Bs,
                        const std::vector<std::vector<
                            const session::PreparedLoop *>> &Plans,
                        int64_t Scale, uint64_t Seed, unsigned NProc);

/// The plan cache, per benchmark: its loops prepared through the default
/// path and savePlans, then five warm starts on fresh builds (loadPlans +
/// prepare), each an operation checked to adopt its plan with the class
/// string the cold plan had. Reports plan.save_s, plan.load_s and
/// plan.warm_prepare_s (medians of the warm starts), plan.bytes and
/// plan.warm_started (87 when every plan is adopted).
void probePlanLayer(RunResult &R);

/// Adds the factorization counters the per-layer metrics report.
void addFactor(factor::FactorStats &Into, const factor::FactorStats &S);

/// The per-layer metrics of a set-up that prepared every suite loop:
/// prepare time per benchmark and in total, and factorization counters.
void addSetupLayers(RunResult &R,
                    const std::map<std::string, double> &PrepareSecs,
                    const factor::FactorStats &Factor);

/// Folds the counters of executions' stats into the per-layer metrics.
void addExecCounters(RunResult &R, const rt::ExecStats &Sum);

/// Folds the traced spans into the per-layer metrics (self time per
/// layer).
void addSpanMetrics(RunResult &R);

/// Tracing overhead: the traced measurement's end-to-end values \p Traced
/// minus the untraced ones already in \p R.
void addTraceDeltas(RunResult &R, RunResult &Traced);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

RunResult runSuiteExec(const RunConfig &C);
RunResult runServeSmall(const RunConfig &C);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
