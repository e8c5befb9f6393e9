//===- perfbench/src/ServeSmall.cpp - The serve-small workload ------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-small: requests into serve::Engine. Workers = nproc - 1, one
/// generator thread (this one), Session.Threads = 1, so parallelism comes
/// across requests, not within one. Requests are drawn by seed uniformly
/// over the 87 (program, loop) pairs at Scale 1; each carries its own copy
/// of one of a few seeded datasets per pair, and its final memory must
/// equal the runSequential reference on that dataset.
///
/// The end-to-end metrics come from a closed loop that keeps two requests
/// per worker outstanding, answering each response at once with the next
/// request, for --seconds: the engine's capacity and the latency of a
/// request at that load (from its send to the moment the generator sees
/// its response). Every worker always has a request queued, so no thread
/// of the process sleeps, and the figures do not carry the time a shared
/// host takes to wake an idle virtual CPU, which swings by multiples from
/// run to run.
///
/// A traced run adds the open-loop measurement: three fixed rates
/// (lo / mid / hi), each request timed from its scheduled send time, and
/// an ascending rate ladder for the highest rate that meets the tail limit
/// without a growing backlog (serve.max_rps). The rates and the limit were
/// fixed once, on a 4-core machine at the commit that introduced this
/// benchmark (saturation there is about 10-12k requests/s), and are never
/// retuned.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "serve/Engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <malloc.h>
#include <thread>

namespace perfbench {
namespace {

constexpr int64_t Scale = 1;
constexpr double TailQ = 0.99;
constexpr unsigned SetupReplicas = 3;
/// Seeded datasets per (program, loop) pair; a request copies one.
constexpr unsigned Variants = 4;

constexpr double LoRate = 3000, MidRate = 4500, HiRate = 9000;
/// Ladder rungs: LadderLo * LadderStep^k while <= LadderHi, from the mid
/// rate up.
constexpr double LadderLo = MidRate, LadderHi = 16000, LadderStep = 1.08;
/// The tail limit a ladder rung must meet (p99, microseconds).
constexpr double TailLimitUs = 20000;

/// Latency statistics are medians over windows of scheduled send time:
/// 0.25 s, or longer where a window would hold fewer than 1000 requests
/// (then its p99 has at least 10 samples beyond it).
double windowSecs(double Rate) { return std::max(0.25, 1000.0 / Rate); }
/// Windows of the closed loop, which runs at saturation (about 10k
/// requests/s on 4 cores, so a window holds thousands).
constexpr double ClosedWindowSecs = 0.5;
/// A window whose requests went out later than this (p99) is left out of
/// the latency statistics (see windowed()).
constexpr double MaxLateUs = 1000;

/// A traced run records the spans of every eighth request (a full trace
/// of a run would hold hundreds of thousands of requests).
bool traced(uint64_t Req) { return Req % 8 == 0; }

struct Served {
  unsigned Workers = 1;
  std::vector<std::unique_ptr<suite::Benchmark>> Bs;
  std::unique_ptr<serve::Engine> E; // Destroyed before the programs.
  std::vector<serve::ProgramId> Ids;
  std::vector<std::vector<const session::PreparedLoop *>> Plans;
  std::map<std::string, double> PrepareSecs;
  unsigned ClassMatch = 0;
  factor::FactorStats Factor;
};

std::unique_ptr<Served> setUp(uint64_t Seed, unsigned NProc) {
  auto P = std::make_unique<Served>();
  P->Bs = suite::buildAllBenchmarks();
  serve::EngineOptions EO;
  EO.Workers = P->Workers = std::max(1u, NProc - 1);
  EO.Session.Threads = 1;
  P->E = std::make_unique<serve::Engine>(EO);
  for (size_t I = 0; I < P->Bs.size(); ++I) {
    suite::Benchmark &B = *P->Bs[I];
    P->Ids.push_back(P->E->addProgram(B.prog(), B.usr()));
    rt::Memory M;
    sym::Bindings Probe;
    makeDataset(B, Scale, mix64(Seed + I), M, Probe);
    P->Plans.emplace_back();
    double T0 = nowSeconds();
    for (const suite::LoopSpec &LS : B.Loops) {
      const session::PreparedLoop &PL =
          P->E->prepare(P->Ids.back(), *LS.Loop, probeOptions(LS, Probe));
      P->Plans.back().push_back(&PL);
      P->ClassMatch += PL.Plan.classString() == LS.PaperClass;
      addFactor(P->Factor, PL.FactorStats);
    }
    P->PrepareSecs[B.Name] = nowSeconds() - T0;
  }
  return P;
}

/// One seeded dataset of a pair and its sequential reference.
struct Dataset {
  rt::Memory M;
  sym::Bindings B;
  rt::Memory Ref;
};

struct Pair {
  size_t Bench, Loop;
  std::vector<sym::SymbolId> Reductions;
  std::vector<std::unique_ptr<Dataset>> Data;
  /// runSequential times on fresh copies of its datasets (References).
  std::vector<double> SeqSecs;
};

/// Sequential references, timed the way requests are served: on
/// nproc - 1 threads at once (as many as the engine has workers), each
/// with its own long-lived single-thread session per benchmark, so a
/// timed run sees the same steady state, the same placement on the
/// machine's cores and the same neighbours as a served request.
struct References {
  std::vector<std::vector<std::unique_ptr<session::Session>>> Lanes;

  References(Served &P, unsigned Threads) : Lanes(Threads) {
    session::SessionOptions SO;
    SO.Threads = 1;
    for (auto &Lane : Lanes)
      for (const std::unique_ptr<suite::Benchmark> &B : P.Bs)
        Lane.push_back(
            std::make_unique<session::Session>(B->prog(), B->usr(), SO));
  }

  /// The sequential reference for \p D: \p Pr's loop run on a fresh copy
  /// of it, final memory left in \p Out.
  void reference(Served &P, const Pair &Pr, const Dataset &D,
                 rt::Memory &Out) {
    copyMemory(D.M, Out);
    sym::Bindings Bd = D.B;
    Lanes[0][Pr.Bench]->runSequential(*P.Bs[Pr.Bench]->Loops[Pr.Loop].Loop,
                                      Out, Bd);
  }

  /// Times every pair's reference three times per dataset, spread over
  /// the lanes. As with a served request, this thread copies each dataset
  /// and another one runs it. Called at several points of the run, so both
  /// sides of the speed-up see the same drift of the machine.
  void time(Served &P, std::vector<Pair> &Pairs) {
    struct Item {
      size_t Pair;
      rt::Memory M;
      sym::Bindings B;
      double Secs = 0;
    };
    // Batches bound the copies alive at once.
    constexpr size_t Batch = 64;
    std::vector<std::unique_ptr<Item>> Items;
    auto Flush = [&] {
      std::vector<std::thread> Threads;
      for (unsigned T = 0; T < Lanes.size(); ++T)
        Threads.emplace_back([&, T] {
          for (size_t I = T; I < Items.size(); I += Lanes.size()) {
            Item &It = *Items[I];
            const Pair &Pr = Pairs[It.Pair];
            Span S("session.runSequential");
            double T0 = nowSeconds();
            Lanes[T][Pr.Bench]->runSequential(
                *P.Bs[Pr.Bench]->Loops[Pr.Loop].Loop, It.M, It.B);
            It.Secs = nowSeconds() - T0;
          }
        });
      for (std::thread &T : Threads)
        T.join();
      for (const std::unique_ptr<Item> &It : Items)
        Pairs[It->Pair].SeqSecs.push_back(It->Secs);
      Items.clear();
    };
    for (size_t I = 0; I < Pairs.size(); ++I)
      for (const std::unique_ptr<Dataset> &D : Pairs[I].Data)
        for (int K = 0; K < 3; ++K) {
          auto It = std::make_unique<Item>();
          It->Pair = I;
          copyMemory(D->M, It->M);
          It->B = D->B;
          Items.push_back(std::move(It));
          if (Items.size() == Batch)
            Flush();
        }
    Flush();
  }
};

std::vector<Pair> makePairs(Served &P, References &Ref, uint64_t Seed) {
  std::vector<Pair> Pairs;
  for (size_t I = 0; I < P.Bs.size(); ++I)
    for (size_t L = 0; L < P.Bs[I]->Loops.size(); ++L) {
      Pair Pr{I, L, reductionTargets(P.Plans[I][L]->Plan), {}, {}};
      for (unsigned V = 0; V < Variants; ++V) {
        auto D = std::make_unique<Dataset>();
        makeDataset(*P.Bs[I], Scale, mix64(Seed ^ (Pairs.size() << 8) ^ V),
                    D->M, D->B);
        Ref.reference(P, Pr, *D, D->Ref);
        Pr.Data.push_back(std::move(D));
      }
      Pairs.push_back(std::move(Pr));
    }
  return Pairs;
}

/// What one fixed-rate phase measured.
struct Phase {
  double Rate = 0;
  unsigned Sent = 0;
  unsigned DoneInWindow = 0; ///< Completed before the last send.
  /// Per window of scheduled send time: each request's latency and how
  /// late the generator sent it.
  struct Window {
    std::vector<double> LatUs, LateUs;
  };
  std::map<unsigned, Window> Windows;
  double SubmitUs = 0, WaitUs = 0, ExecUs = 0;
  std::map<std::string, double> Exec, Test;
  /// Per pair: each served request's execution time.
  std::map<size_t, std::vector<double>> PairExec;
  rt::ExecStats Sum;
};

class Generator {
public:
  Generator(Served &P, std::vector<Pair> &Pairs, uint64_t Seed, RunResult &R,
            RssPeak &Rss)
      : P(P), Pairs(Pairs), Rand(Seed), R(R), Rss(Rss) {}

  /// Sends \p Rate requests per second for \p Seconds on a fixed
  /// schedule, then waits for every response.
  Phase run(double Rate, double Seconds) {
    Phase Ph;
    Ph.Rate = Rate;
    const double WindowSecs = windowSecs(Rate);
    const unsigned N =
        std::max(1u, static_cast<unsigned>(std::lround(Rate * Seconds)));
    const double Start = nowSeconds() + 1e-3;
    for (unsigned K = 0; K < N; ++K) {
      send(Ph, Start + K / Rate, Start, WindowSecs);
      poll(Ph);
    }
    Ph.DoneInWindow = Ph.Sent - static_cast<unsigned>(Outstanding.size());
    while (!Outstanding.empty())
      poll(Ph);
    Ph.SubmitUs /= Ph.Sent;
    Ph.WaitUs /= Ph.Sent;
    Ph.ExecUs /= Ph.Sent;
    return Ph;
  }

  /// Keeps \p Clients requests outstanding for \p Seconds: each response
  /// is answered at once with the next request (a closed loop), then waits
  /// for every response. Latency runs from the send.
  Phase closed(unsigned Clients, double Seconds) {
    Phase Ph;
    const double WindowSecs = ClosedWindowSecs;
    const double Start = nowSeconds();
    double Now = Start;
    for (; Now < Start + Seconds; Now = nowSeconds()) {
      while (Outstanding.size() < Clients)
        send(Ph, nowSeconds(), Start, WindowSecs);
      poll(Ph);
    }
    Ph.DoneInWindow = Ph.Sent - static_cast<unsigned>(Outstanding.size());
    Ph.Rate = Ph.DoneInWindow / (Now - Start);
    while (!Outstanding.empty())
      poll(Ph);
    Ph.SubmitUs /= Ph.Sent;
    Ph.WaitUs /= Ph.Sent;
    Ph.ExecUs /= Ph.Sent;
    return Ph;
  }

private:
  /// Builds the next request, due at \p Sched, waits for that moment and
  /// submits it.
  void send(Phase &Ph, double Sched, double Start, double WindowSecs) {
    auto Rq = std::make_unique<Pending>();
    Rq->Pair = nextPair();
    Rq->Data = Pairs[Rq->Pair].Data[Rand.below(Variants)].get();
    copyMemory(Rq->Data->M, Rq->M);
    Rq->B = Rq->Data->B;
    Rq->Req = ++NextReq;
    Rq->Sched = Sched;
    Rq->Window = static_cast<unsigned>((Sched - Start) / WindowSecs);
    while (nowSeconds() < Rq->Sched)
      poll(Ph);
    Rq->Sent = nowSeconds();
    Ph.Windows[Rq->Window].LateUs.push_back((Rq->Sent - Rq->Sched) * 1e6);
    const Pair &Pr = Pairs[Rq->Pair];
    serve::Request SR;
    SR.Program = P.Ids[Pr.Bench];
    SR.Loop = P.Bs[Pr.Bench]->Loops[Pr.Loop].Loop;
    SR.M = &Rq->M;
    SR.B = &Rq->B;
    {
      Span S(traced(Rq->Req) ? "serve.Engine::submit" : nullptr, Rq->Req);
      Rq->F = P.E->submit(SR);
    }
    Ph.SubmitUs += (nowSeconds() - Rq->Sent) * 1e6;
    Outstanding.push_back(std::move(Rq));
    ++Ph.Sent;
  }

  /// Uniform over the pairs, drawn as a seeded shuffle of all of them at a
  /// time, so every phase sees each pair equally often.
  size_t nextPair() {
    if (Deck.empty()) {
      for (size_t I = 0; I < Pairs.size(); ++I)
        Deck.push_back(I);
      Rand.shuffle(Deck);
    }
    size_t Next = Deck.back();
    Deck.pop_back();
    return Next;
  }

  struct Pending {
    size_t Pair = 0;
    const Dataset *Data = nullptr;
    rt::Memory M;
    sym::Bindings B;
    uint64_t Req = 0;
    unsigned Window = 0;
    double Sched = 0, Sent = 0;
    std::future<serve::Response> F;
  };

  void poll(Phase &Ph) {
    for (auto It = Outstanding.begin(); It != Outstanding.end();) {
      if ((*It)->F.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++It;
        continue;
      }
      double Done = nowSeconds();
      finish(**It, Done, Ph);
      It = Outstanding.erase(It);
    }
  }

  void finish(Pending &Rq, double Done, Phase &Ph) {
    serve::Response Resp = Rq.F.get();
    const Pair &Pr = Pairs[Rq.Pair];
    const suite::Benchmark &B = *P.Bs[Pr.Bench];
    bool Ok = Resp.St == serve::Status::Ok &&
              sameMemory(Rq.Data->Ref, Rq.M, Pr.Reductions);
    if (!Ok)
      std::fprintf(stderr, "serve-small: %s %s: %s\n", B.Name.c_str(),
                   B.Loops[Pr.Loop].Name.c_str(),
                   Resp.St == serve::Status::Ok
                       ? "result differs from the sequential reference"
                       : serve::statusName(Resp.St));
    R.op(Ok);
    double Exec = 0, Test = 0;
    for (const rt::ExecStats &St : Resp.Stats) {
      Exec += St.TotalSeconds;
      Test += testSeconds(St);
      Ph.Sum += St;
    }
    double Lat = Done - Rq.Sched;
    Ph.WaitUs += (Lat - Exec) * 1e6;
    Ph.ExecUs += Exec * 1e6;
    Ph.PairExec[Rq.Pair].push_back(Exec);
    Ph.Windows[Rq.Window].LatUs.push_back(Lat * 1e6);
    Ph.Exec[B.Name] += Exec;
    Ph.Test[B.Name] += Test;
    if (Tracer::get().enabled() && traced(Rq.Req)) {
      // The request as the generator saw it: scheduled -> done, with the
      // engine's part (sent -> done) and its execution time inside it.
      unsigned Lane = 1000 + static_cast<unsigned>(Rq.Req % 16);
      uint64_t Root = Tracer::get().add(
          {"bench.request", Rq.Sched, Done, 0, 0, Rq.Req, Lane});
      uint64_t Srv = Tracer::get().add(
          {"serve.request", Rq.Sent, Done, 0, Root, Rq.Req, Lane});
      Tracer::get().add({"session.runPrepared", Done - Exec, Done, 0, Srv,
                         Rq.Req, Lane});
    }
    if (++Finished % 256 == 0)
      Rss.sample();
  }

  Served &P;
  std::vector<Pair> &Pairs;
  Rng Rand;
  RunResult &R;
  RssPeak &Rss;
  std::deque<std::unique_ptr<Pending>> Outstanding;
  std::vector<size_t> Deck;
  uint64_t NextReq = 0, Finished = 0;
};

/// The \p Q-quantile of latency in each window of \p Ph, median over the
/// windows: one descheduled moment moves one window, not the result.
///
/// A window in which the generator could not hold its schedule (p99 of
/// its send lateness above MaxLateUs: this thread was descheduled, so the
/// window did not apply the intended load) is left out, unless every
/// window is; how late the generator ran is reported on its own.
double windowed(const Phase &Ph, double Q) {
  std::vector<double> Kept, All;
  for (const auto &KV : Ph.Windows) {
    double V = quantile(KV.second.LatUs, Q);
    All.push_back(V);
    if (quantile(KV.second.LateUs, TailQ) <= MaxLateUs)
      Kept.push_back(V);
  }
  return median(Kept.empty() ? All : Kept);
}

/// p99 of how late the generator sent the requests of \p Ph.
double lateness(const Phase &Ph) {
  std::vector<double> Late;
  for (const auto &KV : Ph.Windows)
    Late.insert(Late.end(), KV.second.LateUs.begin(), KV.second.LateUs.end());
  return quantile(Late, TailQ);
}

/// A rung passes when its tail meets the limit and the backlog left when
/// sending stopped is no more than one tail-limit's worth of arrivals.
bool rungPasses(const Phase &Ph) {
  double Backlog = Ph.Sent - Ph.DoneInWindow;
  return windowed(Ph, TailQ) <= TailLimitUs &&
         Backlog <= Ph.Rate * TailLimitUs * 1e-6;
}

struct Measured {
  Phase Closed;
  /// The open-loop phases, measured only with \p OpenLoop (traced runs).
  Phase Lo, Mid, Hi;
  double MaxRps = 0;
};

/// Requests the closed loop keeps outstanding: two per worker, so a worker
/// that finishes one finds the next already queued and never sleeps.
unsigned clients(const Served &P) { return 2 * P.Workers; }

Measured measure(Served &P, std::vector<Pair> &Pairs, References &Ref,
                 uint64_t Seed, double Seconds, bool OpenLoop, RunResult &R,
                 RssPeak &Rss) {
  Generator G(P, Pairs, Seed, R, Rss);
  // Warm-up: pooled contexts and frames fill here.
  G.closed(clients(P), 0.3);
  Ref.time(P, Pairs);
  Measured M;
  M.Closed = G.closed(clients(P), Seconds);
  Ref.time(P, Pairs);
  if (!OpenLoop)
    return M;
  M.Lo = G.run(LoRate, 1.2);
  M.Mid = G.run(MidRate, 2.4);
  M.Hi = G.run(HiRate, 1.2);
  std::vector<double> Rungs;
  for (double Rate = LadderLo; Rate <= LadderHi; Rate *= LadderStep)
    Rungs.push_back(std::round(Rate));
  for (double Rate : Rungs) {
    Phase Ph = G.run(Rate, 0.72);
    if (!rungPasses(Ph))
      break;
    M.MaxRps = Rate;
  }
  return M;
}

/// speedup_geomean and rtov_mean_pct over the closed-loop phase. A
/// benchmark's speedup is the sum over its loops of the median sequential
/// time over the sum of the median served execution time: one typical
/// pass over the benchmark, robust to a descheduled request. Sequential
/// times come from References::time, run before and after the phase.
void ratios(const Phase &Ph, const std::vector<Pair> &Pairs,
            std::vector<double> &Speedup, std::vector<double> &Share) {
  std::map<size_t, double> BenchSeq, BenchExec;
  for (const auto &KV : Ph.PairExec) {
    size_t B = Pairs[KV.first].Bench;
    BenchSeq[B] += median(Pairs[KV.first].SeqSecs);
    BenchExec[B] += median(KV.second);
  }
  for (const auto &KV : BenchExec)
    Speedup.push_back(BenchSeq[KV.first] / KV.second);
  for (const auto &KV : Ph.Exec)
    Share.push_back(100.0 * Ph.Test.at(KV.first) / KV.second);
}

void endToEnd(const Measured &M, const std::vector<Pair> &Pairs,
              RunResult &R) {
  std::vector<double> Speedup, Share;
  ratios(M.Closed, Pairs, Speedup, Share);
  R.e2e("lat_p50_us", windowed(M.Closed, 0.5), "us");
  R.e2e("lat_tail_us", windowed(M.Closed, TailQ), "us");
  R.e2e("ops_per_s", M.Closed.Rate, "1/s");
  R.e2e("speedup_geomean", geomean(Speedup), "x");
  R.e2e("rtov_mean_pct", mean(Share), "%");
}

} // namespace

RunResult runServeSmall(const RunConfig &Cfg) {
  RunResult R;
  // Set-up, three replicas, up to nproc - 1 at once; replica 0's engine is
  // kept. While the replicas analyze, their engines' workers wait on empty
  // queues.
  std::vector<std::unique_ptr<Served>> Replicas(SetupReplicas);
  double Setup = medianConcurrentSetup(
      SetupReplicas, std::max(1u, Cfg.NProc - 1),
      [&](unsigned I) { Replicas[I] = setUp(Cfg.Seed, Cfg.NProc); });
  std::unique_ptr<Served> P = std::move(Replicas[0]);
  Replicas.clear();
  malloc_trim(0);
  R.e2e("setup_s", Setup, "s");
  R.e2e("class_match", P->ClassMatch, "count");
  References Ref(*P, std::max(1u, Cfg.NProc - 1));
  std::vector<Pair> Pairs = makePairs(*P, Ref, Cfg.Seed);

  RssPeak Rss;
  Measured M =
      measure(*P, Pairs, Ref, Cfg.Seed, Cfg.Seconds, false, R, Rss);
  endToEnd(M, Pairs, R);
  R.e2e("peak_rss_mb", Rss.peak(), "MB");
  std::printf("serve-small: closed loop, %u clients: %u requests, %.0f "
              "req/s, p50/p99 %.0f/%.0f us, workers busy %.0f%%\n",
              clients(*P), M.Closed.Sent, M.Closed.Rate,
              windowed(M.Closed, 0.5), windowed(M.Closed, TailQ),
              100.0 * M.Closed.Rate * M.Closed.ExecUs * 1e-6 / P->Workers);

  if (Cfg.Trace) {
    Tracer::get().enable(true);
    RunResult TracedOps;
    RssPeak TracedRss;
    Measured T = measure(*P, Pairs, Ref, Cfg.Seed, Cfg.Seconds, true,
                         TracedOps, TracedRss);
    RunResult TE;
    endToEnd(T, Pairs, TE);
    addTraceDeltas(R, TE);
    addSetupLayers(R, P->PrepareSecs, P->Factor);
    R.layer("serve.submit_us", T.Closed.SubmitUs, "us");
    R.layer("serve.wait_us", T.Closed.WaitUs, "us");
    R.layer("serve.exec_us", T.Closed.ExecUs, "us");
    R.layer("serve.gen_late_us", lateness(T.Mid), "us");
    R.layer("serve.lat_p50_us_mid", windowed(T.Mid, 0.5), "us");
    R.layer("serve.lat_tail_us_mid", windowed(T.Mid, TailQ), "us");
    R.layer("serve.lat_tail_us_lo", windowed(T.Lo, TailQ), "us");
    R.layer("serve.lat_tail_us_hi", windowed(T.Hi, TailQ), "us");
    R.layer("serve.max_rps", T.MaxRps, "1/s");
    serve::ServeStats SS = P->E->stats();
    serve::ShardStats Tot = SS.totals();
    R.layer("serve.peak_queue", static_cast<double>(SS.PeakQueueDepth),
            "count");
    R.layer("serve.rejected", static_cast<double>(SS.Rejected), "count");
    R.layer("serve.retried", static_cast<double>(SS.Retried), "count");
    R.layer("serve.expired", static_cast<double>(SS.Expired), "count");
    R.layer("serve.degraded_execs", static_cast<double>(SS.DegradedExecs),
            "count");
    R.layer("session.exec_contexts", static_cast<double>(Tot.ExecContexts),
            "count");
    double Exec = 0, Seq = 0;
    std::map<std::string, double> BExec, BTest;
    rt::ExecStats Sum;
    for (const Phase *Ph : {&T.Closed, &T.Lo, &T.Mid, &T.Hi}) {
      for (const auto &KV : Ph->Exec) {
        Exec += KV.second;
        BExec[KV.first] += KV.second;
        BTest[KV.first] += Ph->Test.at(KV.first);
      }
      for (const auto &KV : Ph->PairExec)
        Seq += median(Pairs[KV.first].SeqSecs) *
               static_cast<double>(KV.second.size());
      Sum += Ph->Sum;
    }
    R.layer("session.run_s", Exec, "s");
    R.layer("rt.seq_s", Seq, "s");
    for (const std::string &N : paperRtovBenchmarks())
      R.layer("rt.rtov_pct." + N, 100.0 * BTest[N] / BExec[N], "%");
    addExecCounters(R, Sum);
    probeRuntimeLayers(R, P->Bs, P->Plans, Scale, Cfg.Seed, Cfg.NProc);
    probeAnalysisLayers(R, Scale, Cfg.Seed);
    Tracer::get().enable(false);
  }
  return R;
}

} // namespace perfbench
