//===- perfbench/src/Probes.cpp - Direct layer calls for traced runs ------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session::prepare and Session::runPrepared hide the layers below them.
/// A traced run therefore also calls those layers' public functions
/// directly, on the same loops and plans, so each layer's cost shows under
/// its own name: analysis and summary on fresh contexts, predicate and USR
/// lowering on fresh compile caches, stage, exact-test, CIV-COMP and
/// BOUNDS-COMP evaluation on a seeded dataset, and the plan cache's write
/// and warm start. None of this is part of a workload's end-to-end
/// numbers.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "rt/CompiledCascade.h"
#include "rt/Interp.h"
#include "summary/Summary.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <sstream>

namespace perfbench {
namespace {

/// Runs \p F under a span named \p Name and adds its wall time to \p Acc.
template <class Fn> void timed(const char *Name, double &Acc, Fn &&F) {
  Span S(Name);
  double T0 = nowSeconds();
  F();
  Acc += nowSeconds() - T0;
}

} // namespace

void probeAnalysisLayers(RunResult &R, int64_t Scale, uint64_t Seed) {
  double Summarize = 0, Analyze = 0;
  // Separate fresh builds, so neither call finds the other's interned
  // nodes.
  auto ForSummary = suite::buildAllBenchmarks();
  auto ForAnalysis = suite::buildAllBenchmarks();
  for (size_t I = 0; I < ForAnalysis.size(); ++I) {
    suite::Benchmark &BS = *ForSummary[I];
    summary::SummaryBuilder SB(BS.usr(), BS.prog());
    for (const suite::LoopSpec &LS : BS.Loops)
      timed("summary.summarizeIteration", Summarize, [&] {
        summary::CivPlan Plan;
        SB.summarizeIteration(*LS.Loop, Plan);
      });

    suite::Benchmark &BA = *ForAnalysis[I];
    rt::Memory M;
    sym::Bindings Bd;
    makeDataset(BA, Scale, mix64(Seed + I), M, Bd);
    for (const suite::LoopSpec &LS : BA.Loops)
      timed("analysis.HybridAnalyzer::analyze", Analyze, [&] {
        analysis::HybridAnalyzer A(BA.usr(), BA.prog(), probeOptions(LS, Bd));
        A.analyze(*LS.Loop);
      });
  }
  R.layer("summary.summarize_s", Summarize, "s");
  R.layer("analysis.analyze_s", Analyze, "s");
}

void probeRuntimeLayers(
    RunResult &R, std::vector<std::unique_ptr<suite::Benchmark>> &Bs,
    const std::vector<std::vector<const session::PreparedLoop *>> &Plans,
    int64_t Scale, uint64_t Seed, unsigned NProc) {
  double Lower = 0, UsrLower = 0, StageEval = 0, Exact = 0, Civ = 0,
         Bounds = 0;
  size_t Preds = 0, Usrs = 0;
  for (size_t I = 0; I < Bs.size(); ++I) {
    suite::Benchmark &B = *Bs[I];
    rt::Memory M;
    sym::Bindings Bd;
    makeDataset(B, Scale, mix64(Seed + I), M, Bd);
    rt::PredCompileCache PC(B.sym());
    rt::USRCompileCache UC(B.sym(), PC);
    rt::HoistCache Hoist;
    session::SessionOptions SO;
    SO.Threads = NProc;
    session::Session S(B.prog(), B.usr(), SO);
    for (size_t L = 0; L < Plans[I].size(); ++L) {
      const analysis::LoopPlan &Plan = Plans[I][L]->Plan;
      // CIV-COMP first: BOUNDS-COMP and the tests may read its values.
      sym::Bindings Run = Bd;
      if (!Plan.Civ.empty()) {
        rt::Memory SliceMem;
        copyMemory(M, SliceMem);
        timed("rt.interpCivSlice", Civ, [&] {
          rt::interpCivSlice(*Plan.Loop, Plan.Civ, SliceMem, Run);
        });
      }
      for (const analysis::ArrayPlan &AP : Plan.Arrays) {
        for (const analysis::TestCascade *TC :
             {&AP.Flow, &AP.Output, &AP.Priv, &AP.Slv, &AP.RRed,
              &AP.ExtRedFlow})
          for (const pdag::CascadeStage &St : TC->Stages) {
            const pdag::CompiledPred *CP = nullptr;
            timed("pdag.PredCompileCache::get", Lower,
                  [&] { CP = PC.get(St.P); });
            if (CP)
              timed("pdag.CompiledPred::eval", StageEval,
                    [&] { (void)CP->eval(Run); });
          }
        for (const usr::USR *U :
             {AP.FlowUSR, AP.OutputUSR, AP.ExtRedUSR}) {
          if (!U)
            continue;
          timed("usr.USRCompileCache::get", UsrLower, [&] { UC.get(U); });
          timed("usr.HoistCache::emptiness", Exact, [&] {
            bool Hit = false;
            (void)Hoist.emptiness(U, Run, B.sym(), Hit, &UC);
          });
        }
        if (AP.NeedsBoundsComp && AP.BoundsUSR)
          timed("session.computeBounds", Bounds, [&] {
            int64_t Lo = 0, Hi = 0;
            (void)S.computeBounds(AP.BoundsUSR, Run, Lo, Hi);
          });
      }
    }
    Preds += PC.size();
    Usrs += UC.size();
  }
  R.layer("pdag.lower_s", Lower, "s");
  R.layer("pdag.compiled_preds", static_cast<double>(Preds), "count");
  R.layer("usr.lower_s", UsrLower, "s");
  R.layer("usr.compiled_usrs", static_cast<double>(Usrs), "count");
  R.layer("pdag.stage_eval_s", StageEval, "s");
  R.layer("usr.exact_direct_s", Exact, "s");
  R.layer("rt.civ_slice_direct_s", Civ, "s");
  R.layer("rt.bounds_direct_s", Bounds, "s");

  // One fan-out round trip of an empty task to every pool thread.
  ThreadPool Pool(NProc);
  std::vector<double> Trips;
  for (int K = 0; K < 200; ++K) {
    Span S("support.ThreadPool::run+wait");
    double T0 = nowSeconds();
    for (unsigned T = 0; T < NProc; ++T)
      Pool.run([] {});
    Pool.wait();
    Trips.push_back((nowSeconds() - T0) * 1e6);
  }
  R.layer("support.pool_roundtrip_us", median(Trips), "us");
}

void probePlanLayer(RunResult &R) {
  constexpr unsigned WarmStarts = 5;
  auto Options = [](bool Hoistable) {
    session::SessionOptions SO;
    SO.Threads = 1;
    SO.Analyzer.HoistableContext = Hoistable;
    return SO;
  };
  auto Write = suite::buildAllBenchmarks();
  std::vector<std::vector<std::unique_ptr<suite::Benchmark>>> Warm;
  for (unsigned K = 0; K < WarmStarts; ++K)
    Warm.push_back(suite::buildAllBenchmarks());
  double Save = 0, Load = 0, WarmTotal = 0;
  size_t Bytes = 0, Started = 0;
  for (size_t I = 0; I < Write.size(); ++I) {
    // The write: the benchmark's loops prepared through the default path
    // (probe-analyzed plans are never serialized), one session per
    // hoistable context, then savePlans.
    suite::Benchmark &WB = *Write[I];
    std::string Streams[2];
    std::map<std::string, std::string> ColdClass;
    for (int H = 0; H < 2; ++H) {
      session::Session S(WB.prog(), WB.usr(), Options(H));
      for (const suite::LoopSpec &LS : WB.Loops)
        if (LS.Hoistable == static_cast<bool>(H)) {
          Span Sp("session.prepare");
          ColdClass[LS.Name] = S.prepare(*LS.Loop).Plan.classString();
        }
      std::ostringstream OS;
      timed("plan.savePlans", Save, [&] { S.savePlans(OS); });
      Streams[H] = OS.str();
      Bytes += Streams[H].size();
    }
    // Warm starts on fresh builds: loadPlans + prepare must adopt every
    // plan with the class string its cold plan had.
    std::vector<double> WarmSecs, LoadSecs;
    for (unsigned K = 0; K < WarmStarts; ++K) {
      suite::Benchmark &B = *Warm[K][I];
      double L = 0, T0 = nowSeconds();
      for (int H = 0; H < 2; ++H) {
        session::Session S(B.prog(), B.usr(), Options(H));
        std::istringstream IS(Streams[H]);
        bool LoadOk = true;
        try {
          timed("plan.loadPlans", L,
                [&] { LoadOk = S.loadPlans(IS).Rejected == 0; });
        } catch (const std::exception &E) {
          std::fprintf(stderr, "plan probe: loadPlans %s: %s\n",
                       B.Name.c_str(), E.what());
          LoadOk = false;
        }
        for (const suite::LoopSpec &LS : B.Loops) {
          if (LS.Hoistable != static_cast<bool>(H))
            continue;
          bool Ok = LoadOk;
          try {
            Span Sp("session.prepare");
            size_t Before = S.numPlansWarmStarted();
            const session::PreparedLoop &PL = S.prepare(*LS.Loop);
            Ok = Ok && S.numPlansWarmStarted() == Before + 1 &&
                 PL.Plan.classString() == ColdClass[LS.Name];
          } catch (const std::exception &E) {
            std::fprintf(stderr, "plan probe: warm %s %s: %s\n",
                         B.Name.c_str(), LS.Name.c_str(), E.what());
            Ok = false;
          }
          R.op(Ok);
        }
        if (K == 0)
          Started += S.numPlansWarmStarted();
      }
      WarmSecs.push_back(nowSeconds() - T0);
      LoadSecs.push_back(L);
    }
    WarmTotal += median(WarmSecs);
    Load += median(LoadSecs);
  }
  R.layer("plan.save_s", Save, "s");
  R.layer("plan.load_s", Load, "s");
  R.layer("plan.bytes", static_cast<double>(Bytes), "bytes");
  R.layer("plan.warm_started", static_cast<double>(Started), "count");
  R.layer("plan.warm_prepare_s", WarmTotal, "s");
}

} // namespace perfbench
