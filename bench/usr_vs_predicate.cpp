//===- bench/usr_vs_predicate.cpp - Sec. 2.2/3 motivation microbench ------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// The paper's central cost claim (Sec. 2.2 / Sec. 3): evaluating the
// independence USR exactly at runtime materializes every memory location
// involved in potential dependences, while the extracted predicate only
// *classifies* emptiness — typically O(1) or O(N) with tiny constants.
// This binary measures both on the Fig. 3(b)-style output-independence
// equation as N grows, in three tiers:
//
//  1. a self-timed HOIST-USR table comparing the interpreted
//     evalUSREmpty against the compiled interval-run engine
//     (usr::CompiledUSR emptiness mode). The interpreter is Θ(N²) on
//     this equation (it re-materializes the U_{k<i} prefix per
//     iteration), so rows at N >= 1e5 report a measured *linear* lower
//     bound for it — per-iteration cost only grows with N, making
//     time(N) >= time(N0) * N/N0 a strict underestimate;
//  2. google-benchmark curves for the two exact evaluators and the
//     predicate cascade (complexity fits);
//  3. the run/points-avoided counters of the compiled engine.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "factor/Factor.h"
#include "pdag/PredEval.h"
#include "pdag/PredSimplify.h"
#include "summary/Independence.h"
#include "usr/USRCompile.h"
#include "usr/USREval.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace halo;
using benchutil::nowSeconds;

namespace {

/// Shared fixture: the monotone block-write OIND equation with index
/// array IB (the SOLVH HE pattern).
struct Setup {
  sym::Context Sym;
  pdag::PredContext P{Sym};
  usr::USRContext U{Sym, P};
  const usr::USR *OInd = nullptr;
  const pdag::Pred *Pred = nullptr;
  std::vector<pdag::CascadeStage> Stages;
  sym::SymbolId IB, I;

  Setup() {
    I = Sym.symbol("i", 1);
    IB = Sym.symbol("IB", 0, true);
    sym::SymbolId K = Sym.symbol("k", 2);
    auto WF = [&](sym::SymbolId V) {
      return U.interval(
          Sym.mulConst(
              Sym.addConst(Sym.arrayRef(IB, Sym.symRef(V)), -1), 32),
          Sym.intConst(32));
    };
    const usr::USR *Prior = U.recur(
        K, Sym.intConst(1), Sym.addConst(Sym.symRef(I), -1), WF(K));
    OInd = U.recur(I, Sym.intConst(1), Sym.symRef("N"),
                   U.intersect(WF(I), Prior));
    factor::Factorizer F(U);
    Pred = pdag::simplify(P, F.factor(OInd));
    Stages = pdag::buildCascade(P, Pred);
  }

  sym::Bindings bindings(int64_t N) {
    sym::Bindings B;
    B.setScalar(Sym.symbol("N"), N);
    sym::ArrayBinding A;
    A.Lo = 1;
    for (int64_t X = 0; X < N; ++X)
      A.Vals.push_back(1 + X * 2); // Monotone, disjoint blocks.
    B.setArray(IB, A);
    return B;
  }
};

Setup &setup() {
  static Setup S;
  return S;
}

/// Tier 1: the HOIST-USR emptiness table. The acceptance bar is a >= 5x
/// compiled-over-interpreted win at N >= 1e5; the measured lower bound
/// reports orders of magnitude more.
void emptinessTable() {
  Setup &S = setup();
  auto CU = usr::CompiledUSR::compile(S.OInd, S.Sym);

  std::printf("=== HOIST-USR exact test: interpreted evalUSREmpty vs "
              "compiled interval runs ===\n");
  std::printf("Fig. 3(b)-style OIND, monotone disjoint blocks (answer: "
              "empty / independent)\n");
  std::printf("%-9s %13s %13s %12s %10s %13s %s\n", "N", "interp(ms)",
              "compiled(ms)", "speedup", "runs", "pts-avoided", "answer");

  double BaseMs = 0; // interp ms at BaseN, for the linear lower bound.
  int64_t BaseN = 0;
  for (int64_t N : {int64_t(1024), int64_t(4096), int64_t(100000),
                    int64_t(1000000)}) {
    sym::Bindings B = S.bindings(N);
    const bool MeasureInterp = N <= 4096;
    // The U_{k<i} prefix holds 32(N-1) points at its widest; scale the
    // materialization cap with N so neither engine overflows it (they
    // agree on cap failures too — that case is covered by the tests).
    const size_t Cap =
        std::max<size_t>(1u << 22, static_cast<size_t>(64 * N));

    double InterpSec = 0;
    std::optional<bool> InterpAns;
    if (MeasureInterp) {
      sym::Bindings BI = B;
      double T0 = nowSeconds();
      InterpAns = usr::evalUSREmpty(S.OInd, BI, Cap);
      InterpSec = nowSeconds() - T0;
      BaseMs = 1e3 * InterpSec;
      BaseN = N;
    }

    usr::USREvalStats St;
    usr::CompiledUSR::PooledFrame PF;
    double Best = 1e30;
    std::optional<bool> Ans;
    for (int R = 0; R < 3; ++R) {
      St = usr::USREvalStats();
      double T0 = nowSeconds();
      Ans = CU->evalEmptyPooled(PF, B, Cap, &St);
      Best = std::min(Best, nowSeconds() - T0);
    }
    if (!Ans || (MeasureInterp && InterpAns != Ans))
      std::abort(); // Parity failure: the engines must agree.

    if (MeasureInterp) {
      std::printf("%-9lld %13.2f %13.2f %11.1fx %10llu %13llu %s\n",
                  static_cast<long long>(N), 1e3 * InterpSec, 1e3 * Best,
                  InterpSec / Best,
                  static_cast<unsigned long long>(St.RunsProduced),
                  static_cast<unsigned long long>(St.PointsAvoided),
                  *Ans ? "empty" : "not-empty");
    } else {
      // Θ(N²) interpreter: linear extrapolation is a strict lower bound.
      double LbMs = BaseMs * static_cast<double>(N) /
                    static_cast<double>(BaseN);
      std::printf("%-9lld %12.0f* %13.2f %10.0fx* %10llu %13llu %s\n",
                  static_cast<long long>(N), LbMs, 1e3 * Best,
                  (LbMs / 1e3) / Best,
                  static_cast<unsigned long long>(St.RunsProduced),
                  static_cast<unsigned long long>(St.PointsAvoided),
                  *Ans ? "empty" : "not-empty");
    }
  }
  std::printf("(*) interpreted column at N >= 1e5 is the measured linear "
              "lower bound\n    time(%lld) * N/%lld — the interpreter is "
              "Θ(N²) on this equation.\n\n",
              static_cast<long long>(BaseN), static_cast<long long>(BaseN));
}

void BM_ExactUSREvaluation(benchmark::State &State) {
  Setup &S = setup();
  int64_t N = State.range(0);
  sym::Bindings B = S.bindings(N);
  for (auto _ : State) {
    auto V = usr::evalUSREmpty(S.OInd, B);
    benchmark::DoNotOptimize(V);
  }
  State.SetComplexityN(N);
}

void BM_CompiledUSREmptiness(benchmark::State &State) {
  Setup &S = setup();
  int64_t N = State.range(0);
  sym::Bindings B = S.bindings(N);
  auto CU = usr::CompiledUSR::compile(S.OInd, S.Sym);
  usr::CompiledUSR::PooledFrame PF;
  // The U_{k<i} prefix holds 32(N-1) points: scale the cap with N so the
  // benchmark measures the emptiness test, not a cap-overflow abort.
  const size_t Cap =
      std::max<size_t>(1u << 22, static_cast<size_t>(64 * N));
  for (auto _ : State) {
    auto V = CU->evalEmptyPooled(PF, B, Cap);
    if (!V || !*V)
      std::abort(); // Must decide "empty" — anything else is a bug.
    benchmark::DoNotOptimize(V);
  }
  State.SetComplexityN(N);
}

void BM_PredicateCascade(benchmark::State &State) {
  Setup &S = setup();
  int64_t N = State.range(0);
  sym::Bindings B = S.bindings(N);
  for (auto _ : State) {
    bool Ok = false;
    for (const pdag::CascadeStage &St : S.Stages) {
      auto V = pdag::tryEvalPred(St.P, B);
      if (V && *V) {
        Ok = true;
        break;
      }
    }
    benchmark::DoNotOptimize(Ok);
  }
  State.SetComplexityN(N);
}

} // namespace

BENCHMARK(BM_ExactUSREvaluation)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();
BENCHMARK(BM_CompiledUSREmptiness)
    ->RangeMultiplier(4)
    ->Range(16, 1 << 20)
    ->Complexity();
BENCHMARK(BM_PredicateCascade)
    ->RangeMultiplier(4)
    ->Range(16, 1024)
    ->Complexity();

int main(int argc, char **argv) {
  emptinessTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
