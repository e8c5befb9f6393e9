//===- perfbench/src/Common.cpp - Shared benchmark machinery --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>
#include <unistd.h>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  return std::accumulate(V.begin(), V.end(), 0.0) /
         static_cast<double>(V.size());
}

double residentMiB() {
  // statm's second field is the resident page count.
  std::ifstream In("/proc/self/statm");
  long Size = 0, Resident = 0;
  if (!(In >> Size >> Resident))
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double medianConcurrentSetup(unsigned Replicas, unsigned Threads,
                             const std::function<void(unsigned)> &SetUp) {
  std::vector<double> Secs(Replicas, 0);
  for (unsigned First = 0; First < Replicas; First += Threads) {
    std::vector<std::thread> Wave;
    for (unsigned I = First; I < std::min(Replicas, First + Threads); ++I)
      Wave.emplace_back([&, I] {
        double T0 = nowSeconds();
        SetUp(I);
        Secs[I] = nowSeconds() - T0;
      });
    for (std::thread &T : Wave)
      T.join();
  }
  return median(Secs);
}

//===----------------------------------------------------------------------===//
// Seeded inputs and the output check
//===----------------------------------------------------------------------===//

void makeDataset(suite::Benchmark &B, int64_t Scale, uint64_t Seed,
                 rt::Memory &M, sym::Bindings &Bd) {
  B.Setup(M, Bd, Scale);
  // Fill in a fixed (id-sorted) array order so the values depend on the
  // seed alone, not on hash-map iteration order.
  std::vector<sym::SymbolId> Ids;
  for (const auto &KV : M.arrays())
    Ids.push_back(KV.first);
  std::sort(Ids.begin(), Ids.end());
  Rng R(Seed);
  auto &Arrays = M.arrays();
  for (sym::SymbolId Id : Ids)
    for (double &X : Arrays[Id])
      X = R.unit();
}

void copyMemory(const rt::Memory &From, rt::Memory &To) {
  for (const auto &KV : From.arrays()) {
    std::vector<double> &V = To.alloc(KV.first, KV.second.size());
    std::copy(KV.second.begin(), KV.second.end(), V.begin());
  }
}

std::vector<sym::SymbolId> reductionTargets(const analysis::LoopPlan &Plan) {
  std::vector<sym::SymbolId> Out;
  for (const analysis::ArrayPlan &AP : Plan.Arrays)
    if (AP.HasReduction)
      Out.push_back(AP.Array);
  return Out;
}

bool sameMemory(const rt::Memory &Want, const rt::Memory &Got,
                const std::vector<sym::SymbolId> &Reductions) {
  if (Want.arrays().size() != Got.arrays().size())
    return false;
  for (const auto &KV : Want.arrays()) {
    auto It = Got.arrays().find(KV.first);
    if (It == Got.arrays().end() || It->second.size() != KV.second.size())
      return false;
    const std::vector<double> &W = KV.second, &G = It->second;
    bool Tolerant = std::find(Reductions.begin(), Reductions.end(),
                              KV.first) != Reductions.end();
    for (size_t I = 0; I < W.size(); ++I) {
      if (W[I] == G[I] || (std::isnan(W[I]) && std::isnan(G[I])))
        continue;
      if (!Tolerant ||
          std::fabs(W[I] - G[I]) > 1e-9 * (1.0 + std::fabs(W[I])))
        return false;
    }
  }
  return true;
}

const std::vector<std::string> &paperRtovBenchmarks() {
  static const std::vector<std::string> Names = {
      "flo52", "bdna",  "arc2d",   "dyfesm", "mdg",  "trfd",
      "track", "spec77", "ocean",  "qcd",    "nasa7", "wupwise",
      "apsi",  "zeusmp", "gromacs", "calculix"};
  return Names;
}

std::vector<std::string> suiteBenchmarkNames() {
  std::vector<std::string> Names;
  for (const std::unique_ptr<suite::Benchmark> &B :
       suite::buildAllBenchmarks())
    Names.push_back(B->Name);
  return Names;
}

void fillPerLayerDefaults(RunResult &R) {
  auto Zero = [&](const std::string &Name, const char *Unit) {
    if (!R.PerLayer.count(Name))
      R.layer(Name, 0, Unit);
  };
  Zero("session.prepare_s", "s");
  for (const std::string &N : suiteBenchmarkNames())
    Zero("analysis.prepare_s." + N, "s");
  Zero("analysis.analyze_s", "s");
  Zero("summary.summarize_s", "s");
  for (const char *N :
       {"factor.fm_uses", "factor.gate_rule", "factor.fills_arr_rule",
        "factor.invariant_over_rule", "factor.monotonicity_rule",
        "factor.budget_bailouts", "pdag.compiled_preds", "usr.compiled_usrs",
        "plan.warm_started", "pdag.compiled_evals",
        "pdag.memo_hits", "pdag.block_evals", "pdag.scalar_evals",
        "pdag.lanes_poisoned", "pdag.guard_demotions", "usr.compiled_evals",
        "usr.points_avoided", "session.frame_binds",
        "session.frame_rebinds_skipped", "session.exec_contexts",
        "serve.peak_queue", "serve.rejected", "serve.retried",
        "serve.expired", "serve.degraded_execs"})
    Zero(N, "count");
  for (const char *N :
       {"pdag.lower_s", "usr.lower_s", "plan.save_s", "plan.load_s",
        "plan.warm_prepare_s", "session.run_s", "rt.seq_s", "rt.predicate_s",
        "rt.civ_slice_s", "rt.exact_test_s", "rt.bounds_comp_s",
        "rt.civ_slice_direct_s", "rt.bounds_direct_s", "pdag.stage_eval_s",
        "usr.exact_direct_s"})
    Zero(N, "s");
  for (const std::string &N : paperRtovBenchmarks())
    Zero("rt.rtov_pct." + N, "%");
  for (const char *N :
       {"support.pool_roundtrip_us", "serve.submit_us", "serve.wait_us",
        "serve.exec_us", "serve.gen_late_us", "serve.lat_p50_us_mid",
        "serve.lat_tail_us_mid", "serve.lat_tail_us_lo",
        "serve.lat_tail_us_hi", "trace.delta_lat_p50_us",
        "trace.delta_lat_tail_us"})
    Zero(N, "us");
  Zero("trace.delta_ops_per_s", "1/s");
  Zero("serve.max_rps", "1/s");
  Zero("plan.bytes", "bytes");
  for (const char *L : {"bench", "suite", "session", "analysis", "summary",
                        "pdag", "usr", "plan", "rt", "support", "serve"})
    Zero(std::string("self_s.") + L, "s");
}

void addFactor(factor::FactorStats &Into, const factor::FactorStats &S) {
  Into.GateRule += S.GateRule;
  Into.FillsArrayRule += S.FillsArrayRule;
  Into.InvariantOverRule += S.InvariantOverRule;
  Into.MonotonicityRule += S.MonotonicityRule;
  Into.FourierMotzkinUses += S.FourierMotzkinUses;
  Into.BudgetBailouts += S.BudgetBailouts;
}

void addSetupLayers(RunResult &R,
                    const std::map<std::string, double> &PrepareSecs,
                    const factor::FactorStats &F) {
  double Total = 0;
  for (const auto &KV : PrepareSecs) {
    R.layer("analysis.prepare_s." + KV.first, KV.second, "s");
    Total += KV.second;
  }
  R.layer("session.prepare_s", Total, "s");
  R.layer("factor.fm_uses", static_cast<double>(F.FourierMotzkinUses),
          "count");
  R.layer("factor.gate_rule", static_cast<double>(F.GateRule), "count");
  R.layer("factor.fills_arr_rule", static_cast<double>(F.FillsArrayRule),
          "count");
  R.layer("factor.invariant_over_rule",
          static_cast<double>(F.InvariantOverRule), "count");
  R.layer("factor.monotonicity_rule", static_cast<double>(F.MonotonicityRule),
          "count");
  R.layer("factor.budget_bailouts", static_cast<double>(F.BudgetBailouts),
          "count");
}

void addExecCounters(RunResult &R, const rt::ExecStats &S) {
  auto Add = [&](const std::string &Name, double V, const char *Unit) {
    R.layer(Name, R.PerLayer[Name].Value + V, Unit);
  };
  Add("rt.predicate_s", S.PredicateSeconds, "s");
  Add("rt.civ_slice_s", S.CivSliceSeconds, "s");
  Add("rt.exact_test_s", S.ExactTestSeconds, "s");
  Add("rt.bounds_comp_s", S.BoundsCompSeconds, "s");
  Add("pdag.compiled_evals", static_cast<double>(S.CompiledPredEvals),
      "count");
  Add("pdag.memo_hits", static_cast<double>(S.PredMemoHits), "count");
  Add("pdag.block_evals", static_cast<double>(S.BlockEvals), "count");
  Add("pdag.scalar_evals", static_cast<double>(S.ScalarEvals), "count");
  Add("pdag.lanes_poisoned", static_cast<double>(S.LanesPoisoned), "count");
  Add("pdag.guard_demotions", static_cast<double>(S.GuardDemotions),
      "count");
  Add("usr.compiled_evals", static_cast<double>(S.CompiledUSREvals),
      "count");
  Add("usr.points_avoided", static_cast<double>(S.USRPointsAvoided),
      "count");
  Add("session.frame_binds", static_cast<double>(S.FrameBinds), "count");
  Add("session.frame_rebinds_skipped",
      static_cast<double>(S.FrameRebindsSkipped), "count");
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

thread_local std::vector<uint64_t> OpenStack;

unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Mine = Next.fetch_add(1);
  return Mine;
}

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint64_t Tracer::begin(double &Start, uint64_t &Parent) {
  uint64_t Id;
  {
    std::lock_guard<std::mutex> L(M);
    Id = NextId++;
  }
  Parent = OpenStack.empty() ? 0 : OpenStack.back();
  OpenStack.push_back(Id);
  Start = nowSeconds();
  return Id;
}

void Tracer::end(const char *Name, uint64_t Id, uint64_t Parent, uint64_t Req,
                 double Start) {
  double End = nowSeconds();
  OpenStack.pop_back();
  add(Event{Name, Start, End, Id, Parent, Req, threadIndex()});
}

uint64_t Tracer::add(Event E) {
  std::lock_guard<std::mutex> L(M);
  if (!E.Id)
    E.Id = NextId++;
  Events.push_back(std::move(E));
  return Events.back().Id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> L(M);
  return Events.size();
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> L(M);
  // Children of one span run on its thread inside its interval, one after
  // another, so their summed durations are the covered part.
  std::map<uint64_t, double> ChildSum;
  for (const Event &E : Events)
    if (E.Parent)
      ChildSum[E.Parent] += E.End - E.Start;
  std::map<std::string, double> Self;
  for (const Event &E : Events)
    Self[layerOf(E.Name)] +=
        std::max(0.0, (E.End - E.Start) - ChildSum[E.Id]);
  return Self;
}

bool Tracer::writeChromeJson(const std::string &Path,
                             const std::string &Meta) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(M);
  double T0 = Events.empty() ? 0 : Events.front().Start;
  for (const Event &E : Events)
    T0 = std::min(T0, E.Start);
  std::fprintf(F, "{\"otherData\":%s,\"traceEvents\":[\n", Meta.c_str());
  for (size_t I = 0; I < Events.size(); ++I) {
    const Event &E = Events[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"req\":%llu}}%s\n",
                 E.Name.c_str(), layerOf(E.Name).c_str(), E.Tid,
                 (E.Start - T0) * 1e6, (E.End - E.Start) * 1e6,
                 static_cast<unsigned long long>(E.Id),
                 static_cast<unsigned long long>(E.Parent),
                 static_cast<unsigned long long>(E.Req),
                 I + 1 < Events.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

void addSpanMetrics(RunResult &R) {
  for (const auto &KV : Tracer::get().selfSecondsByLayer())
    R.layer("self_s." + KV.first, KV.second, "s");
}

void addTraceDeltas(RunResult &R, RunResult &Traced) {
  for (const char *N : {"lat_p50_us", "lat_tail_us", "ops_per_s"})
    R.layer(std::string("trace.delta_") + N,
            Traced.EndToEnd[N].Value - R.EndToEnd[N].Value,
            R.EndToEnd[N].Unit);
}

} // namespace perfbench
