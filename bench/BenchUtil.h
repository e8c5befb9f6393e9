//===- bench/BenchUtil.h - Shared harness helpers --------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing and execution helpers shared by the table/figure harnesses.
/// Each harness regenerates one table or figure of the paper's evaluation
/// (see DESIGN.md, per-experiment index).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_BENCH_BENCHUTIL_H
#define HALO_BENCH_BENCHUTIL_H

#include "session/Session.h"
#include "suite/Suite.h"

#include <chrono>
#include <cstdio>
#include <string>

namespace halo {
namespace benchutil {

inline double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// One benchmark's timing under a given thread count and analyzer options.
struct BenchTiming {
  double SeqSeconds = 0;       ///< All loops, sequential interpretation.
  /// All loops under their plans: the best pass after the first (the
  /// steady state), or the only pass.
  double ParSeconds = 0;
  double TestOverheadSec = 0;  ///< Predicate + CIV + bounds + exact time.
  /// The first parallel repetition alone: every loop's first execution,
  /// so every memoizable runtime test misses the TestMemo and runs.
  double FirstParSeconds = 0;
  double FirstTestOverheadSec = 0;
  bool AnyTLS = false;
  /// TestMemo outcomes over every parallel repetition.
  uint64_t TestMemoHits = 0;
  uint64_t TestMemoMisses = 0;
  /// Cascade evaluation counters from the best parallel repetition (the
  /// compiled/interpreted split).
  uint64_t CompiledPredEvals = 0;
  uint64_t InterpPredEvals = 0;
  /// Pooled-frame binds across the best repetition.
  uint64_t FrameBinds = 0;
  /// Exact-test (HOIST-USR) evaluations by engine, and the enumeration
  /// work the compiled interval-run engine avoided.
  uint64_t CompiledUSREvals = 0;
  uint64_t InterpUSREvals = 0;
  uint64_t USRPointsAvoided = 0;
};

/// Builds a session for \p B sized for \p Threads workers: every bench
/// harness runs through halo::Session, which owns the plan cache,
/// compiled cascades, HOIST-USR cache, frame pool and thread pool.
inline session::Session makeSession(suite::Benchmark &B, unsigned Threads,
                                    bool CompiledPreds = true) {
  session::SessionOptions SO;
  SO.Threads = Threads;
  SO.UseCompiledPredicates = CompiledPreds;
  // The A/B toggle selects the fully-interpreted runtime: tree-walking
  // predicates and point-materializing exact tests together.
  SO.UseCompiledUSRs = CompiledPreds;
  return session::Session(B.prog(), B.usr(), SO);
}

/// Prepares every measured loop of \p B in \p S once (the paper's static
/// phase), probing with a dataset at \p Scale.
inline void prepareBenchmark(session::Session &S, suite::Benchmark &B,
                             int64_t Scale, bool RuntimeTests = true) {
  rt::Memory M;
  sym::Bindings Bd;
  B.Setup(M, Bd, Scale);
  for (const suite::LoopSpec &LS : B.Loops) {
    analysis::AnalyzerOptions Opts;
    Opts.RuntimeTests = RuntimeTests;
    Opts.Probe = &Bd;
    Opts.HoistableContext = LS.Hoistable;
    S.prepare(*LS.Loop, Opts);
  }
}

/// Analyzes every loop of \p B once (into a session) and executes the
/// whole benchmark (all measured loops, in order) sequentially and under
/// the plans. Scale sizes the synthetic datasets so loop granularities
/// are large enough to amortize thread spawning (the paper makes the same
/// point about PERFECT-CLUB's outdated small datasets in Sec. 6.2).
inline BenchTiming timeBenchmark(suite::Benchmark &B, unsigned Threads,
                                 int64_t Scale,
                                 bool RuntimeTests = true,
                                 int Repeats = 3,
                                 bool CompiledPreds = true) {
  BenchTiming Out;

  // One long-lived session, as in the paper's runtime: plans, compiled
  // cascades and pooled frames are set up once and amortized across every
  // repeated execution below.
  session::Session S = makeSession(B, Threads, CompiledPreds);
  prepareBenchmark(S, B, Scale, RuntimeTests);

  double SeqBest = 1e30, ParBest = 1e30, OvAtBest = 0;
  for (int R = 0; R < Repeats; ++R) {
    {
      rt::Memory M;
      sym::Bindings Bd;
      B.Setup(M, Bd, Scale);
      double T0 = nowSeconds();
      for (const suite::LoopSpec &LS : B.Loops)
        S.runSequential(*LS.Loop, M, Bd);
      SeqBest = std::min(SeqBest, nowSeconds() - T0);
    }
    {
      rt::Memory M;
      sym::Bindings Bd;
      B.Setup(M, Bd, Scale);
      double T0 = nowSeconds();
      double Ov = 0;
      bool TLS = false;
      uint64_t Compiled = 0, Interp = 0, Binds = 0;
      uint64_t UsrC = 0, UsrI = 0, UsrAvoided = 0;
      for (const suite::LoopSpec &LS : B.Loops) {
        rt::ExecStats St = S.run(*LS.Loop, M, Bd);
        Ov += St.PredicateSeconds + St.CivSliceSeconds +
              St.ExactTestSeconds + St.BoundsCompSeconds;
        TLS |= St.UsedTLS;
        Compiled += St.CompiledPredEvals;
        Interp += St.InterpPredEvals;
        Binds += St.FrameBinds;
        UsrC += St.CompiledUSREvals;
        UsrI += St.InterpUSREvals;
        UsrAvoided += St.USRPointsAvoided;
        Out.TestMemoHits += St.TestMemoHits;
        Out.TestMemoMisses += St.TestMemoMisses;
      }
      double T = nowSeconds() - T0;
      if (R == 0) {
        Out.FirstParSeconds = T;
        Out.FirstTestOverheadSec = Ov;
      }
      // The best parallel pass is the steady state: with more than one
      // pass, the first (all TestMemo misses) is reported on its own.
      if (T < ParBest && (R > 0 || Repeats == 1)) {
        ParBest = T;
        OvAtBest = Ov;
        Out.CompiledPredEvals = Compiled;
        Out.InterpPredEvals = Interp;
        Out.FrameBinds = Binds;
        Out.CompiledUSREvals = UsrC;
        Out.InterpUSREvals = UsrI;
        Out.USRPointsAvoided = UsrAvoided;
      }
      Out.AnyTLS |= TLS;
    }
  }
  Out.SeqSeconds = SeqBest;
  Out.ParSeconds = ParBest;
  Out.TestOverheadSec = OvAtBest;
  return Out;
}

} // namespace benchutil
} // namespace halo

#endif // HALO_BENCH_BENCHUTIL_H
