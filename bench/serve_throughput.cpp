//===- bench/serve_throughput.cpp - Multi-program serving load generator --===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The serving-layer claim behind the ROADMAP's heavy-traffic north star:
// once loops are analyzed (once), a sharded serve::Engine must sustain
// the session layer's steady-state execution rate while serving many
// programs to many concurrent clients — i.e. the bounded queue and the
// shard hand-off must not cost noticeable throughput against a lone
// Session::runBatch on one thread.
//
// The generator builds M programs (each with an O(1) symbolic-stride
// cascade loop and an O(N) monotonicity-cascade loop), pre-builds every
// client's dataset, then measures:
//
//  1. the single-session baseline: all requests executed back-to-back
//     through one Session on one thread (the PR 2 steady state);
//  2. the engine under several shards x workers configurations, K
//     closed-loop client threads each submitting its share of requests
//     and blocking on the response future (concurrency = K).
//
// Columns: req/s (served requests per second), xbase (speedup over the
// single-session baseline; 1sx1w >= ~1.0x is the no-queue-regression
// check), p50/p99 (client-observed request latency, queueing included),
// peakQ (queue high-water mark), and a per-shard ServeStats table for
// the last configuration. A fault-rate sweep (0%/1%/10% injected
// transient failures on one worker) closes the run: the 0% row bounds
// the clean-path cost of the robustness layer, the rest chart retries,
// classified failures and breaker-driven degradation under load. The
// container CI runs on is single-core, so xbase > 1 is *not* expected
// from the multi-worker rows here — see docs/BENCHMARKS.md.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "serve/Engine.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

using namespace halo;
using namespace halo::benchutil;

namespace {

/// One served program: a strided-write loop (O(1) predicate s >= 1) and a
/// monotone block-write loop (O(N) predicate over IB), both passing their
/// cascades on the generated datasets (the steady serving state).
struct ServedProgram {
  suite::Benchmark B;
  suite::BenchBuilder BB{B};
  ir::DoLoop *Strided = nullptr, *Blocks = nullptr;
  sym::SymbolId XS, XB, IB;
  int64_t N;

  explicit ServedProgram(int64_t N) : N(N) {
    XS = BB.dataArray("XS", BB.Sym.mulConst(BB.s("N"), 4));
    XB = BB.dataArray("XB", BB.Sym.mulConst(BB.s("N"), 8));
    IB = BB.indexArray("IB");
    Strided = suite::makeSymbolicStrideLoop(BB, "strided", "i", XS, "s",
                                            BB.s("N"), 0);
    Blocks = suite::makeMonotonicBlockLoop(BB, "blocks", "i", XB, IB,
                                           BB.c(4), BB.s("N"), 0);
  }

  void setup(rt::Memory &M, sym::Bindings &Bd) {
    Bd.setScalar(BB.Sym.symbol("N"), N);
    Bd.setScalar(BB.Sym.symbol("s"), 2);
    M.alloc(XS, static_cast<size_t>(4 * N));
    M.alloc(XB, static_cast<size_t>(8 * N + 16));
    Bd.setArray(IB, suite::rampArray(N, 1, 4)); // Monotone, gaps of 4.
  }
};

struct LoadResult {
  double Seconds = 0;
  double P50Us = 0, P99Us = 0;
  uint64_t OkResp = 0, DegradedResp = 0, FailResp = 0;
  serve::ServeStats Stats;
};

double percentileUs(std::vector<double> &LatSeconds, double P) {
  if (LatSeconds.empty())
    return 0;
  std::sort(LatSeconds.begin(), LatSeconds.end());
  size_t Idx = static_cast<size_t>(P * (LatSeconds.size() - 1));
  return 1e6 * LatSeconds[Idx];
}

/// Runs \p Requests loop executions through an engine with the given
/// geometry, \p Clients closed-loop threads submitting round-robin over
/// programs and loops. \p Batch is Request::Repeats: how many executions
/// one submission carries (the mini-runBatch shape that amortizes the
/// queue hand-off; Batch=1 measures the raw per-request overhead).
/// \p SameLoop routes EVERY request to one (program, loop) — the
/// same-loop-contention scenario: one shard, one session, all workers.
/// Before the intra-shard concurrency work this serialized on the shard
/// lock regardless of the worker count. \p AllowFaults tolerates
/// classified non-OK responses (the fault-rate sweep arms the injector,
/// so ExecError after exhausted retries is an expected outcome there);
/// on the clean path any non-OK response still aborts the run. Returns
/// wall time and client-observed per-submission latency percentiles.
LoadResult runEngine(std::vector<std::unique_ptr<ServedProgram>> &Progs,
                     unsigned Shards, unsigned Workers, unsigned Clients,
                     size_t Requests, unsigned Batch, bool SameLoop = false,
                     bool AllowFaults = false) {
  serve::EngineOptions EO;
  EO.Shards = Shards;
  EO.Workers = Workers;
  EO.QueueCapacity = 64;
  serve::Engine E(EO);
  std::vector<serve::ProgramId> Ids;
  for (auto &P : Progs) {
    serve::ProgramId Id = E.addProgram(P->B.prog(), P->B.usr());
    Ids.push_back(Id);
    E.prepare(Id, *P->Strided);
    E.prepare(Id, *P->Blocks);
  }

  // Per-client request state, built outside the timed region. A client
  // reuses its Memory/Bindings across its requests — the steady
  // serving shape (a resident client with a live dataset).
  struct ClientState {
    std::vector<std::unique_ptr<rt::Memory>> Ms;
    std::vector<std::unique_ptr<sym::Bindings>> Bs;
    std::vector<double> LatSeconds;
    uint64_t Ok = 0, Degraded = 0, Fail = 0;
  };
  std::vector<ClientState> CS(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    for (size_t P = 0; P < Progs.size(); ++P) {
      CS[C].Ms.push_back(std::make_unique<rt::Memory>());
      CS[C].Bs.push_back(std::make_unique<sym::Bindings>());
      Progs[P]->setup(*CS[C].Ms.back(), *CS[C].Bs.back());
    }

  const size_t PerClient = Requests / Clients / Batch;
  double T0 = nowSeconds();
  std::vector<std::thread> Ts;
  for (unsigned C = 0; C < Clients; ++C)
    Ts.emplace_back([&, C] {
      ClientState &St = CS[C];
      St.LatSeconds.reserve(PerClient);
      for (size_t I = 0; I < PerClient; ++I) {
        const size_t P = SameLoop ? 0 : (C + I) % Progs.size();
        serve::Request Req;
        Req.Program = Ids[P];
        Req.Loop = SameLoop ? Progs[0]->Blocks
                            : (I % 2 ? Progs[P]->Strided : Progs[P]->Blocks);
        Req.M = St.Ms[P].get();
        Req.B = St.Bs[P].get();
        Req.Repeats = Batch;
        double S0 = nowSeconds();
        serve::Response Resp = E.submit(Req).get();
        St.LatSeconds.push_back(nowSeconds() - S0);
        if (Resp.OK)
          ++(Resp.St == serve::Status::DegradedOk ? St.Degraded : St.Ok);
        else if (AllowFaults)
          ++St.Fail; // Classified outcome; tallied in the fault table.
        else
          std::abort(); // Every warm-up loop must serve on the clean path.
      }
    });
  for (std::thread &T : Ts)
    T.join();
  E.drain();

  LoadResult R;
  R.Seconds = nowSeconds() - T0;
  std::vector<double> All;
  for (ClientState &St : CS) {
    All.insert(All.end(), St.LatSeconds.begin(), St.LatSeconds.end());
    R.OkResp += St.Ok;
    R.DegradedResp += St.Degraded;
    R.FailResp += St.Fail;
  }
  R.P50Us = percentileUs(All, 0.50);
  R.P99Us = percentileUs(All, 0.99);
  R.Stats = E.stats();
  return R;
}

} // namespace

int main() {
  const int64_t N = 4096;
  const size_t Requests = 800;
  const unsigned Clients = 4;
  const size_t Programs = 4;
  const int Reps = 3;

  std::vector<std::unique_ptr<ServedProgram>> Progs;
  for (size_t P = 0; P < Programs; ++P)
    Progs.push_back(std::make_unique<ServedProgram>(N));

  // Baseline: one Session per program, one thread, all requests
  // back-to-back (the steady-state runBatch shape of
  // bench_rtov_overhead). Crucially it walks the SAME working set in the
  // SAME (client, program, loop) order as the engine's clients below —
  // Clients x Programs live datasets — so the comparison isolates the
  // queue/shard hand-off instead of cache-footprint differences.
  session::SessionOptions SO;
  SO.Threads = 1;
  std::vector<std::unique_ptr<session::Session>> Sessions;
  for (auto &P : Progs) {
    Sessions.push_back(
        std::make_unique<session::Session>(P->B.prog(), P->B.usr(), SO));
    Sessions.back()->prepare(*P->Strided);
    Sessions.back()->prepare(*P->Blocks);
  }
  std::vector<std::unique_ptr<rt::Memory>> BaseM;
  std::vector<std::unique_ptr<sym::Bindings>> BaseB;
  for (unsigned C = 0; C < Clients; ++C)
    for (size_t P = 0; P < Progs.size(); ++P) {
      BaseM.push_back(std::make_unique<rt::Memory>());
      BaseB.push_back(std::make_unique<sym::Bindings>());
      Progs[P]->setup(*BaseM.back(), *BaseB.back());
    }
  double BaseBest = 1e30;
  std::vector<double> BaseLat;
  const unsigned BaseBatch = 8; // Same mini-batch grain as the b8 rows.
  for (int Rep = 0; Rep < Reps; ++Rep) {
    std::vector<double> Lat;
    Lat.reserve(Requests / BaseBatch);
    double T0 = nowSeconds();
    for (size_t I = 0; I < Requests / BaseBatch / Clients; ++I)
      for (unsigned C = 0; C < Clients; ++C) {
        const size_t P = (C + I) % Progs.size();
        const ir::DoLoop *L = I % 2 ? Progs[P]->Strided : Progs[P]->Blocks;
        rt::Memory &M = *BaseM[C * Progs.size() + P];
        sym::Bindings &Bd = *BaseB[C * Progs.size() + P];
        double S0 = nowSeconds();
        for (unsigned E = 0; E < BaseBatch; ++E) {
          auto St = Sessions[P]->runPrepared(*L, M, Bd);
          if (!St || (!St->RanParallel && !St->TLSSucceeded))
            std::abort(); // The steady-state predicates must keep passing.
        }
        Lat.push_back(nowSeconds() - S0);
      }
    double T = nowSeconds() - T0;
    if (T < BaseBest) {
      BaseBest = T;
      BaseLat = std::move(Lat);
    }
  }
  double BaseRps = Requests / BaseBest;

  std::printf("=== Multi-program serving throughput (%zu programs, %zu "
              "requests, N=%lld, %u clients) ===\n",
              Programs, Requests, static_cast<long long>(N), Clients);
  std::printf("%-18s %10s %8s %9s %9s %6s %9s\n", "CONFIG", "req/s", "xbase",
              "p50(us)", "p99(us)", "peakQ", "rejected");
  std::printf("%-18s %10.0f %8s %9.1f %9.1f %6s %9s\n", "single-session",
              BaseRps, "1.00x", percentileUs(BaseLat, 0.50),
              percentileUs(BaseLat, 0.99), "-", "-");

  // Batch=1 rows expose the raw per-request queue + future hand-off cost
  // (two context switches per request on a single core); Batch=8 is the
  // engine-side analog of the runBatch baseline, amortizing the hand-off
  // across a mini-batch — the steady-state serving configuration.
  struct Geometry {
    unsigned Shards, Workers, Batch;
  };
  const Geometry Geos[] = {{1, 1, 1}, {1, 1, 8}, {2, 2, 8}, {4, 4, 8}};
  LoadResult Last;
  for (const Geometry &G : Geos) {
    LoadResult Best;
    Best.Seconds = 1e30;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      LoadResult R = runEngine(Progs, G.Shards, G.Workers, Clients, Requests,
                               G.Batch);
      if (R.Seconds < Best.Seconds)
        Best = std::move(R);
    }
    double Rps = Requests / Best.Seconds;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "engine %usx%uw b%u", G.Shards,
                  G.Workers, G.Batch);
    std::printf("%-18s %10.0f %7.2fx %9.1f %9.1f %6zu %9llu\n", Name, Rps,
                Rps / BaseRps, Best.P50Us, Best.P99Us,
                Best.Stats.PeakQueueDepth,
                static_cast<unsigned long long>(Best.Stats.Rejected));
    Last = std::move(Best);
  }

  // Same-loop contention: every client hammers ONE prepared loop of ONE
  // program — one shard, one session. The scenario the shard-wide execute
  // lock used to serialize: with intra-shard concurrency, W workers all
  // execute the same plan at once (per-execution contexts, shared memo).
  // The 1-worker row is the no-regression check against the same-loop
  // single-session baseline; multi-worker xbase only exceeds ~1.0 on a
  // multi-core runner (see docs/BENCHMARKS.md, "Single-core caveat").
  {
    std::vector<std::unique_ptr<rt::Memory>> SameM;
    std::vector<std::unique_ptr<sym::Bindings>> SameB;
    for (unsigned C = 0; C < Clients; ++C) {
      SameM.push_back(std::make_unique<rt::Memory>());
      SameB.push_back(std::make_unique<sym::Bindings>());
      Progs[0]->setup(*SameM.back(), *SameB.back());
    }
    double SameBest = 1e30;
    std::vector<double> SameLatBest;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      std::vector<double> Lat;
      Lat.reserve(Requests / BaseBatch);
      double T0 = nowSeconds();
      for (size_t I = 0; I < Requests / BaseBatch / Clients; ++I)
        for (unsigned C = 0; C < Clients; ++C) {
          double S0 = nowSeconds();
          for (unsigned E = 0; E < BaseBatch; ++E) {
            auto St = Sessions[0]->runPrepared(*Progs[0]->Blocks, *SameM[C],
                                               *SameB[C]);
            if (!St || (!St->RanParallel && !St->TLSSucceeded))
              std::abort();
          }
          Lat.push_back(nowSeconds() - S0);
        }
      double T = nowSeconds() - T0;
      if (T < SameBest) {
        SameBest = T;
        SameLatBest = std::move(Lat);
      }
    }
    double SameRps = Requests / SameBest;

    std::printf("\n=== Same-loop contention (1 program, 1 loop, %zu "
                "requests, %u clients) ===\n",
                Requests, Clients);
    std::printf("%-18s %10s %8s %9s %9s %6s %9s\n", "CONFIG", "req/s",
                "xbase", "p50(us)", "p99(us)", "peakQ", "rejected");
    std::printf("%-18s %10.0f %8s %9.1f %9.1f %6s %9s\n", "single-session",
                SameRps, "1.00x", percentileUs(SameLatBest, 0.50),
                percentileUs(SameLatBest, 0.99), "-", "-");
    const Geometry SameGeos[] = {{1, 1, 8}, {1, 2, 8}, {1, 4, 8}};
    for (const Geometry &G : SameGeos) {
      LoadResult Best;
      Best.Seconds = 1e30;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        LoadResult R = runEngine(Progs, G.Shards, G.Workers, Clients,
                                 Requests, G.Batch, /*SameLoop=*/true);
        if (R.Seconds < Best.Seconds)
          Best = std::move(R);
      }
      double Rps = Requests / Best.Seconds;
      char Name[32];
      std::snprintf(Name, sizeof(Name), "engine %usx%uw b%u", G.Shards,
                    G.Workers, G.Batch);
      std::printf("%-18s %10.0f %7.2fx %9.1f %9.1f %6zu %9llu\n", Name, Rps,
                  Rps / SameRps, Best.P50Us, Best.P99Us,
                  Best.Stats.PeakQueueDepth,
                  static_cast<unsigned long long>(Best.Stats.Rejected));
    }
  }

  // Fault-rate sweep: the 1sx1w b8 clean-path geometry with the
  // "serve.process.transient" injection point armed at increasing rates.
  // The 0% row runs with the injector fully disarmed and is the
  // robustness-overhead gate: deadline/token checks, the breaker lookup
  // and the injector fast path together must stay within ~2% of the
  // pre-robustness engine (compare req/s against the engine 1sx1w b8 row
  // above — same geometry, same requests). Non-zero rows show the
  // degradation curve: retries absorb most faults (Ok stays dominant),
  // exhausted retries surface as classified ExecError responses, and
  // breaker opens demote to the sequential tier (degExec).
  {
    support::FaultInjector &FI = support::FaultInjector::instance();
    std::printf("\n=== Fault-rate sweep (engine 1sx1w b8, point "
                "serve.process.transient) ===\n");
    std::printf("%-18s %10s %8s %9s %6s %6s %6s %8s %7s %8s\n", "CONFIG",
                "req/s", "xbase", "p50(us)", "ok", "degr", "fail", "retried",
                "brOpen", "degExec");
    const double Rates[] = {0.0, 0.01, 0.10};
    for (double Rate : Rates) {
      LoadResult Best;
      Best.Seconds = 1e30;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        if (Rate > 0.0) {
          // Re-arm per rep: resets the per-point sequence so every rep
          // replays the same deterministic fault pattern.
          FI.arm(0xBE7C5, 0.0);
          FI.armPoint("serve.process.transient", Rate);
        }
        LoadResult R =
            runEngine(Progs, 1, 1, Clients, Requests, 8, /*SameLoop=*/false,
                      /*AllowFaults=*/true);
        FI.disarm();
        if (R.Seconds < Best.Seconds)
          Best = std::move(R);
      }
      double Rps = Requests / Best.Seconds;
      serve::ShardStats T = Best.Stats.totals();
      char Name[32];
      std::snprintf(Name, sizeof(Name), "faults %g%%", 100.0 * Rate);
      std::printf("%-18s %10.0f %7.2fx %9.1f %6llu %6llu %6llu %8llu %7llu "
                  "%8llu\n",
                  Name, Rps, Rps / BaseRps, Best.P50Us,
                  static_cast<unsigned long long>(Best.OkResp),
                  static_cast<unsigned long long>(Best.DegradedResp),
                  static_cast<unsigned long long>(Best.FailResp),
                  static_cast<unsigned long long>(T.Retried),
                  static_cast<unsigned long long>(T.BreakerOpen),
                  static_cast<unsigned long long>(T.DegradedExecs));
    }
  }

  // Per-shard ServeStats of the last geometry: routing spread, execution
  // counts and the shard-local compile/frame caches.
  std::printf("\nPer-shard ServeStats (last config):\n");
  std::printf("%-6s %8s %8s %8s %10s %12s %12s\n", "SHARD", "progs", "loops",
              "reqs", "execs", "predEvals", "frameBinds");
  const serve::ServeStats &SS = Last.Stats;
  for (size_t I = 0; I < SS.Shards.size(); ++I) {
    const serve::ShardStats &S = SS.Shards[I];
    std::printf("%-6zu %8zu %8zu %8llu %10llu %12llu %12llu\n", I, S.Programs,
                S.PreparedLoops, static_cast<unsigned long long>(S.Completed),
                static_cast<unsigned long long>(S.Executions),
                static_cast<unsigned long long>(S.Exec.CompiledPredEvals),
                static_cast<unsigned long long>(S.Exec.FrameBinds));
  }
  serve::ShardStats T = SS.totals();
  std::printf("%-6s %8zu %8zu %8llu %10llu %12llu %12llu\n", "total",
              T.Programs, T.PreparedLoops,
              static_cast<unsigned long long>(T.Completed),
              static_cast<unsigned long long>(T.Executions),
              static_cast<unsigned long long>(T.Exec.CompiledPredEvals),
              static_cast<unsigned long long>(T.Exec.FrameBinds));
  return 0;
}
