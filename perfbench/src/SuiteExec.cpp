//===- perfbench/src/SuiteExec.cpp - The suite-exec workload --------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// suite-exec: the paper's Figs. 10-13 / RTov setting. One long-lived
/// Session per benchmark (Threads = nproc), every loop prepared in set-up
/// with the probe options bench::prepareBenchmark uses, then a closed loop
/// with one client executing every loop at Scale 8 through runPrepared, in
/// a seeded order per pass. The first pass is warm-up; timed passes run
/// until --seconds has passed and at least twelve were made. Each execution
/// gets its own freshly set-up, seeded dataset (outside the timed region)
/// and a runSequential reference on an identical one; the parallel result
/// must match it. A pass runs in batches of eight executions: their data
/// set-ups, then their sequential references, then their parallel
/// executions back to back, then the output checks.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <malloc.h>

namespace perfbench {
namespace {

constexpr int64_t Scale = 8;
constexpr double TailQ = 0.99;
/// Timed passes at least: 12 x 87 executions leave 10 beyond p99.
constexpr unsigned MinPasses = 12;
constexpr unsigned SetupReplicas = 3;
/// Executions set up together and then run back to back.
constexpr size_t BatchSize = 8;

struct Prepared {
  std::vector<std::unique_ptr<suite::Benchmark>> Bs;
  std::vector<std::unique_ptr<session::Session>> Sessions;
  std::vector<std::vector<const session::PreparedLoop *>> Plans;
  std::map<std::string, double> PrepareSecs;
  unsigned ClassMatch = 0;
  factor::FactorStats Factor;
};

std::unique_ptr<Prepared> setUp(uint64_t Seed, unsigned NProc) {
  auto P = std::make_unique<Prepared>();
  P->Bs = suite::buildAllBenchmarks();
  for (size_t I = 0; I < P->Bs.size(); ++I) {
    suite::Benchmark &B = *P->Bs[I];
    session::SessionOptions SO;
    SO.Threads = NProc;
    P->Sessions.push_back(
        std::make_unique<session::Session>(B.prog(), B.usr(), SO));
    rt::Memory M;
    sym::Bindings Probe;
    makeDataset(B, Scale, mix64(Seed + I), M, Probe);
    P->Plans.emplace_back();
    double T0 = nowSeconds();
    for (const suite::LoopSpec &LS : B.Loops) {
      const session::PreparedLoop &PL =
          P->Sessions.back()->prepare(*LS.Loop, probeOptions(LS, Probe));
      P->Plans.back().push_back(&PL);
      P->ClassMatch += PL.Plan.classString() == LS.PaperClass;
      addFactor(P->Factor, PL.FactorStats);
    }
    P->PrepareSecs[B.Name] = nowSeconds() - T0;
  }
  return P;
}

/// Everything one measured phase produced.
struct Measured {
  std::vector<double> LatUs;
  /// Per (benchmark, loop): every timed execution's sequential, parallel
  /// and runtime-test time.
  std::map<std::pair<size_t, size_t>, std::vector<double>> LoopSeq, LoopPar,
      LoopTest;
  std::map<std::string, double> Par, Test;
  rt::ExecStats Sum;
  unsigned Passes = 0;
};

Measured measure(Prepared &P, uint64_t Seed, double Seconds, RunResult &R,
                 RssPeak &Rss) {
  std::vector<std::pair<size_t, size_t>> Pairs;
  for (size_t I = 0; I < P.Bs.size(); ++I)
    for (size_t L = 0; L < P.Bs[I]->Loops.size(); ++L)
      Pairs.emplace_back(I, L);
  Rng Order(Seed);
  Measured Out;
  uint64_t Req = 0;
  // One execution of a batch: its two identical datasets and its timings.
  struct Exec {
    size_t I = 0, L = 0;
    uint64_t Req = 0;
    rt::Memory MP, MR;
    sym::Bindings BP, BR;
    double Seq = 0, Par = 0;
    std::optional<rt::ExecStats> St;
  };
  auto Batch = [&](const std::pair<size_t, size_t> *First, size_t N,
                   bool Timed) {
    std::vector<std::unique_ptr<Exec>> Xs;
    for (size_t K = 0; K < N; ++K) {
      auto X = std::make_unique<Exec>();
      X->I = First[K].first;
      X->L = First[K].second;
      X->Req = ++Req;
      Span Sp("suite.Setup", X->Req);
      uint64_t DataSeed = mix64(Seed ^ (X->Req << 20));
      makeDataset(*P.Bs[X->I], Scale, DataSeed, X->MP, X->BP);
      makeDataset(*P.Bs[X->I], Scale, DataSeed, X->MR, X->BR);
      Xs.push_back(std::move(X));
    }
    for (const std::unique_ptr<Exec> &X : Xs) {
      Span Sp("session.runSequential", X->Req);
      double T0 = nowSeconds();
      P.Sessions[X->I]->runSequential(*P.Bs[X->I]->Loops[X->L].Loop, X->MR,
                                      X->BR);
      X->Seq = nowSeconds() - T0;
    }
    // The parallel executions run back to back, so the pool's workers are
    // never left idle for the length of a data set-up or a sequential run
    // between two of them.
    for (const std::unique_ptr<Exec> &X : Xs) {
      Span Root("bench.execution", X->Req);
      Span Sp("session.runPrepared", X->Req);
      double T0 = nowSeconds();
      X->St = P.Sessions[X->I]->runPrepared(*P.Bs[X->I]->Loops[X->L].Loop,
                                             X->MP, X->BP);
      X->Par = nowSeconds() - T0;
    }
    for (const std::unique_ptr<Exec> &X : Xs) {
      suite::Benchmark &B = *P.Bs[X->I];
      bool Ok = X->St && X->St->Aborted == rt::ExecStats::AbortReason::None &&
                sameMemory(X->MR, X->MP,
                           reductionTargets(P.Plans[X->I][X->L]->Plan));
      if (!Ok)
        std::fprintf(stderr, "suite-exec: %s %s: %s\n", B.Name.c_str(),
                     B.Loops[X->L].Name.c_str(),
                     X->St ? "result differs from the sequential reference"
                           : "no prepared plan");
      R.op(Ok);
      if (!Timed || !X->St)
        continue;
      Out.LatUs.push_back(X->Par * 1e6);
      Out.LoopSeq[{X->I, X->L}].push_back(X->Seq);
      Out.LoopPar[{X->I, X->L}].push_back(X->Par);
      Out.LoopTest[{X->I, X->L}].push_back(testSeconds(*X->St));
      Out.Par[B.Name] += X->Par;
      Out.Test[B.Name] += testSeconds(*X->St);
      Out.Sum += *X->St;
    }
    Rss.sample();
  };
  auto Pass = [&](bool Timed) {
    Order.shuffle(Pairs);
    for (size_t K = 0; K < Pairs.size(); K += BatchSize)
      Batch(&Pairs[K], std::min(BatchSize, Pairs.size() - K), Timed);
  };
  Pass(false); // Warm-up: lazy compile caches and frames fill here.
  double T0 = nowSeconds();
  do {
    Pass(true);
    ++Out.Passes;
  } while (nowSeconds() - T0 < Seconds || Out.Passes < MinPasses);
  return Out;
}

/// A benchmark's speed-up is the sum over its loops of the median
/// sequential time over the sum of the median parallel time, and its
/// runtime-test share the sum of the median test time over the latter:
/// one typical pass over the benchmark, robust to a single slow execution.
void endToEnd(const Measured &M, RunResult &R) {
  std::map<size_t, double> BenchSeq, BenchPar, BenchTest;
  for (const auto &KV : M.LoopPar) {
    BenchSeq[KV.first.first] += median(M.LoopSeq.at(KV.first));
    BenchPar[KV.first.first] += median(KV.second);
    BenchTest[KV.first.first] += median(M.LoopTest.at(KV.first));
  }
  std::vector<double> Speedup, Share;
  for (const auto &KV : BenchPar) {
    Speedup.push_back(BenchSeq[KV.first] / KV.second);
    Share.push_back(100.0 * BenchTest[KV.first] / KV.second);
  }
  double Par = 0;
  for (const auto &KV : M.Par)
    Par += KV.second;
  R.e2e("lat_p50_us", median(M.LatUs), "us");
  R.e2e("lat_tail_us", quantile(M.LatUs, TailQ), "us");
  R.e2e("ops_per_s", static_cast<double>(M.LatUs.size()) / Par, "1/s");
  R.e2e("speedup_geomean", geomean(Speedup), "x");
  R.e2e("rtov_mean_pct", mean(Share), "%");
}

} // namespace

RunResult runSuiteExec(const RunConfig &Cfg) {
  RunResult R;
  // Set-up, three replicas, up to nproc - 1 at once (analysis is
  // single-threaded; zeusmp's TRANX2_do2100 alone sets the length of
  // each). Replica 0 is kept.
  std::vector<std::unique_ptr<Prepared>> Replicas(SetupReplicas);
  double Setup = medianConcurrentSetup(
      SetupReplicas, std::max(1u, Cfg.NProc - 1),
      [&](unsigned I) { Replicas[I] = setUp(Cfg.Seed, Cfg.NProc); });
  std::unique_ptr<Prepared> P = std::move(Replicas[0]);
  Replicas.clear();
  malloc_trim(0);
  R.e2e("setup_s", Setup, "s");
  R.e2e("class_match", P->ClassMatch, "count");

  RssPeak Rss;
  Measured M = measure(*P, Cfg.Seed, Cfg.Seconds, R, Rss);
  endToEnd(M, R);
  R.e2e("peak_rss_mb", Rss.peak(), "MB");
  std::printf("suite-exec: %u timed pass(es), %zu timed executions\n",
              M.Passes, M.LatUs.size());

  if (Cfg.Trace) {
    Tracer::get().enable(true);
    RunResult TracedOps;
    RssPeak TracedRss;
    Measured T = measure(*P, Cfg.Seed, Cfg.Seconds, TracedOps, TracedRss);
    RunResult TE;
    endToEnd(T, TE);
    addTraceDeltas(R, TE);
    addSetupLayers(R, P->PrepareSecs, P->Factor);
    double Par = 0, Seq = 0;
    for (const auto &KV : T.Par)
      Par += KV.second;
    for (const auto &KV : T.LoopSeq)
      for (double S : KV.second)
        Seq += S;
    R.layer("session.run_s", Par, "s");
    R.layer("rt.seq_s", Seq, "s");
    for (const std::string &N : paperRtovBenchmarks())
      R.layer("rt.rtov_pct." + N, 100.0 * T.Test.at(N) / T.Par.at(N), "%");
    addExecCounters(R, T.Sum);
    size_t Contexts = 0;
    for (const auto &S : P->Sessions)
      Contexts += S->numExecContexts();
    R.layer("session.exec_contexts", static_cast<double>(Contexts), "count");
    probeRuntimeLayers(R, P->Bs, P->Plans, Scale, Cfg.Seed, Cfg.NProc);
    probeAnalysisLayers(R, Scale, Cfg.Seed);
    probePlanLayer(R);
    Tracer::get().enable(false);
  }
  return R;
}

} // namespace perfbench
