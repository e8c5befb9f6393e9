//===- tests/suite_test.cpp - Benchmark suite integration tests -----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// For every loop of every reconstructed benchmark (Tables 1-3):
//  - the computed classification must agree with the paper's category,
//  - hybrid parallel execution must produce the same memory state as
//    sequential execution (with reductions compared under a tolerance),
//  - an execution whose runtime-test verdict comes from the prepared
//    loop's memo must be indistinguishable from a first execution,
//  - the static-only baseline (commercial-compiler proxy) must never
//    parallelize the runtime-test loops.
//
//===----------------------------------------------------------------------===//

#include "session/Session.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace halo;
using namespace halo::suite;
using analysis::LoopClass;
using analysis::Technique;

namespace {

struct LoopCase {
  Benchmark *B;
  const LoopSpec *LS;
};

std::vector<std::unique_ptr<Benchmark>> &allBenchmarks() {
  static std::vector<std::unique_ptr<Benchmark>> Benches =
      buildAllBenchmarks();
  return Benches;
}

std::vector<LoopCase> allLoops() {
  std::vector<LoopCase> Out;
  for (auto &B : allBenchmarks())
    for (const LoopSpec &LS : B->Loops)
      Out.push_back(LoopCase{B.get(), &LS});
  return Out;
}

class SuiteLoopTest : public ::testing::TestWithParam<size_t> {
protected:
  LoopCase theCase() { return allLoops()[GetParam()]; }
};

std::string loopCaseName(const ::testing::TestParamInfo<size_t> &Info) {
  LoopCase C = allLoops()[Info.param];
  std::string Name = C.B->Name + "_" + C.LS->Name;
  for (char &Ch : Name)
    if (!isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name;
}

TEST_P(SuiteLoopTest, ClassificationMatchesPaperCategory) {
  LoopCase C = theCase();
  rt::Memory M;
  sym::Bindings Bd;
  C.B->Setup(M, Bd, 1);
  analysis::AnalyzerOptions Opts;
  Opts.Probe = &Bd;
  Opts.HoistableContext = C.LS->Hoistable;
  analysis::HybridAnalyzer A(C.B->usr(), C.B->prog(), Opts);
  analysis::LoopPlan Plan = A.analyze(*C.LS->Loop);

  const std::string &Paper = C.LS->PaperClass;
  std::string Computed = Plan.classString();
  SCOPED_TRACE("paper=" + Paper + " computed=" + Computed);

  if (Paper == "STATIC-PAR") {
    EXPECT_EQ(Plan.Class, LoopClass::StaticPar);
  } else if (Paper == "STATIC-SEQ") {
    EXPECT_EQ(Plan.Class, LoopClass::StaticSeq);
  } else if (Paper == "TLS") {
    EXPECT_EQ(Plan.Class, LoopClass::TLS);
  } else if (Paper.find("HOIST-USR") != std::string::npos) {
    EXPECT_EQ(Plan.Class, LoopClass::HoistUSR);
  } else if (Paper.find("CIV") != std::string::npos) {
    EXPECT_TRUE(Plan.Techniques.count(Technique::CivAgg));
    EXPECT_EQ(Plan.Class, LoopClass::Predicated);
  } else if (Paper.find("BOUNDS-COMP") != std::string::npos) {
    EXPECT_TRUE(Plan.Techniques.count(Technique::BoundsComp));
    EXPECT_EQ(Plan.Class, LoopClass::Predicated);
  } else {
    // A predicate classification like "FI O(1)" / "OI O(N)" /
    // "F/OI O(1)/O(N)" / "SLV O(N)".
    EXPECT_EQ(Plan.Class, LoopClass::Predicated);
    // Complexity never exceeds O(N) (Sec. 3.6).
    EXPECT_LE(Plan.ReportFlowDepth, 1);
    EXPECT_LE(Plan.ReportOutDepth, 1);
  }
}

TEST_P(SuiteLoopTest, ParallelExecutionMatchesSequential) {
  LoopCase C = theCase();

  // Sequential reference.
  rt::Memory SeqM;
  sym::Bindings SeqB;
  C.B->Setup(SeqM, SeqB, 1);
  rt::interpSequential(*C.LS->Loop, SeqM, SeqB);

  // Hybrid parallel execution under the plan.
  rt::Memory ParM;
  sym::Bindings ParB;
  C.B->Setup(ParM, ParB, 1);
  analysis::AnalyzerOptions Opts;
  Opts.Probe = &ParB;
  Opts.HoistableContext = C.LS->Hoistable;
  session::SessionOptions SO;
  SO.Threads = 4;
  session::Session S(C.B->prog(), C.B->usr(), SO);
  const analysis::LoopPlan &Plan = S.prepare(*C.LS->Loop, Opts).Plan;
  rt::ExecStats Stats = S.run(*C.LS->Loop, ParM, ParB);
  SCOPED_TRACE("class=" + Plan.classString() +
               " parallel=" + std::to_string(Stats.RanParallel) +
               " tls=" + std::to_string(Stats.UsedTLS));

  // Memory states must agree (reductions may reorder float additions).
  ASSERT_EQ(SeqM.arrays().size(), ParM.arrays().size());
  for (const auto &KV : SeqM.arrays()) {
    const auto &Seq = KV.second;
    const auto *Par = ParM.find(KV.first);
    ASSERT_NE(Par, nullptr);
    ASSERT_EQ(Seq.size(), Par->size());
    for (size_t I = 0; I < Seq.size(); ++I) {
      double Diff = std::fabs(Seq[I] - (*Par)[I]);
      double Tol = 1e-9 * (1.0 + std::fabs(Seq[I]));
      ASSERT_LE(Diff, Tol)
          << "array " << C.B->sym().symbolInfo(KV.first).Name << "[" << I
          << "]: seq=" << Seq[I] << " par=" << (*Par)[I];
    }
  }

  // Loops the paper parallelizes must actually run in parallel here.
  if (Plan.Class == LoopClass::StaticPar ||
      Plan.Class == LoopClass::Predicated)
    EXPECT_TRUE(Stats.RanParallel);
  if (Plan.Class == LoopClass::StaticSeq)
    EXPECT_FALSE(Stats.RanParallel && !Stats.UsedTLS);
}

TEST_P(SuiteLoopTest, TestMemoHitMatchesFirstExecution) {
  // At the unit-test scale and at the paper-table scale: a session runs
  // the loop twice on identical fresh datasets (miss, then hit); the hit
  // must match the first execution of a fresh session (fresh analysis,
  // fresh caches, a memo miss) in its decisions, CascadeDepthUsed, CIV
  // arrays and output memory, bit for bit.
  LoopCase C = theCase();
  for (int64_t Scale : {1, 8}) {
    SCOPED_TRACE("scale " + std::to_string(Scale));
    session::SessionOptions SO;
    SO.Threads = 4;
    session::Session S(C.B->prog(), C.B->usr(), SO);
    rt::Memory PM;
    sym::Bindings Probe;
    C.B->Setup(PM, Probe, Scale);
    analysis::AnalyzerOptions Opts;
    Opts.Probe = &Probe;
    Opts.HoistableContext = C.LS->Hoistable;
    const session::PreparedLoop &PL = S.prepare(*C.LS->Loop, Opts);

    rt::Memory MR;
    sym::Bindings BR;
    C.B->Setup(MR, BR, Scale);
    session::Session RefS(C.B->prog(), C.B->usr(), SO);
    const session::PreparedLoop &RefPL = RefS.prepare(*C.LS->Loop, Opts);
    rt::ExecStats Ref = RefS.run(*C.LS->Loop, MR, BR);

    rt::ExecStats Runs[2];
    rt::Memory Ms[2];
    sym::Bindings Bs[2];
    for (int K = 0; K < 2; ++K) {
      C.B->Setup(Ms[K], Bs[K], Scale);
      std::optional<rt::ExecStats> St =
          S.runPrepared(*C.LS->Loop, Ms[K], Bs[K]);
      ASSERT_TRUE(St.has_value());
      Runs[K] = *St;
    }
    const bool UsesMemo = Ref.TestMemoMisses == 1;
    EXPECT_EQ(UsesMemo, PL.Plan.Class != LoopClass::StaticPar &&
                            PL.Plan.Class != LoopClass::StaticSeq);
    EXPECT_EQ(Runs[0].TestMemoMisses, Ref.TestMemoMisses);
    EXPECT_EQ(Runs[1].TestMemoHits, Ref.TestMemoMisses);
    EXPECT_EQ(Runs[1].TestMemoMisses, 0u);
    if (UsesMemo) {
      std::shared_ptr<const rt::TestMemo::Entry> Got = PL.Memo.current();
      std::shared_ptr<const rt::TestMemo::Entry> Want = RefPL.Memo.current();
      ASSERT_NE(Got, nullptr);
      ASSERT_NE(Want, nullptr);
      EXPECT_EQ(Got->Verdict.AllOk, Want->Verdict.AllOk);
      ASSERT_EQ(Got->Verdict.Decisions.size(),
                Want->Verdict.Decisions.size());
      for (const auto &KV : Want->Verdict.Decisions) {
        auto It = Got->Verdict.Decisions.find(KV.first);
        ASSERT_NE(It, Got->Verdict.Decisions.end());
        EXPECT_EQ(It->second.Privatize, KV.second.Privatize);
        EXPECT_EQ(It->second.UseSLV, KV.second.UseSLV);
        EXPECT_EQ(It->second.UseDLV, KV.second.UseDLV);
        EXPECT_EQ(It->second.ReductionPrivate, KV.second.ReductionPrivate);
      }
    }
    for (const rt::ExecStats &St : Runs) {
      EXPECT_EQ(St.RanParallel, Ref.RanParallel);
      EXPECT_EQ(St.UsedTLS, Ref.UsedTLS);
      EXPECT_EQ(St.TLSSucceeded, Ref.TLSSucceeded);
      EXPECT_EQ(St.UsedExactTest, Ref.UsedExactTest);
      EXPECT_EQ(St.CascadeDepthUsed, Ref.CascadeDepthUsed);
    }
    std::vector<sym::SymbolId> CivArrays;
    for (const summary::CivDesc &D : PL.Plan.Civ.Civs)
      CivArrays.push_back(D.EntryArr);
    for (const summary::CivJoin &J : PL.Plan.Civ.Joins)
      CivArrays.push_back(J.JoinArr);
    for (int K = 0; K < 2; ++K) {
      for (sym::SymbolId Id : CivArrays) {
        const sym::ArrayBinding *Got = Bs[K].array(Id);
        const sym::ArrayBinding *Want = BR.array(Id);
        ASSERT_NE(Got, nullptr);
        ASSERT_NE(Want, nullptr);
        EXPECT_EQ(Got->Lo, Want->Lo);
        EXPECT_EQ(Got->Vals, Want->Vals);
      }
      ASSERT_EQ(Ms[K].arrays().size(), MR.arrays().size());
      for (const auto &KV : MR.arrays()) {
        const std::vector<double> *V = Ms[K].find(KV.first);
        ASSERT_NE(V, nullptr);
        ASSERT_EQ(V->size(), KV.second.size());
        EXPECT_TRUE(KV.second.empty() ||
                    std::memcmp(V->data(), KV.second.data(),
                                V->size() * sizeof(double)) == 0)
            << "array " << C.B->sym().symbolInfo(KV.first).Name
            << (K ? " (memo hit)" : " (memo miss)");
      }
    }
  }
}

TEST_P(SuiteLoopTest, StaticOnlyBaselineNeverUsesPredicates) {
  LoopCase C = theCase();
  rt::Memory M;
  sym::Bindings Bd;
  C.B->Setup(M, Bd, 1);
  analysis::AnalyzerOptions Opts;
  Opts.RuntimeTests = false; // The ifort/xlf_r proxy.
  Opts.Probe = &Bd;
  analysis::HybridAnalyzer A(C.B->usr(), C.B->prog(), Opts);
  analysis::LoopPlan Plan = A.analyze(*C.LS->Loop);
  for (const analysis::ArrayPlan &AP : Plan.Arrays) {
    EXPECT_TRUE(AP.Flow.Stages.empty());
    EXPECT_TRUE(AP.Output.Stages.empty());
  }
  // A paper-STATIC-PAR loop still parallelizes statically.
  if (C.LS->PaperClass == "STATIC-PAR")
    EXPECT_EQ(Plan.Class, LoopClass::StaticPar);
}

INSTANTIATE_TEST_SUITE_P(AllBenchLoops, SuiteLoopTest,
                         ::testing::Range<size_t>(0, allLoops().size()),
                         loopCaseName);

//===----------------------------------------------------------------------===//
// Whole-suite sanity
//===----------------------------------------------------------------------===//

TEST(SuiteShapeTest, AllTablesPresent) {
  auto &Benches = allBenchmarks();
  EXPECT_GE(Benches.size(), 26u);
  size_t Perfect = 0, S92 = 0, S2k = 0;
  for (auto &B : Benches) {
    if (B->SuiteName == "PERFECT")
      ++Perfect;
    else if (B->SuiteName == "SPEC92")
      ++S92;
    else
      ++S2k;
  }
  EXPECT_EQ(Perfect, 10u); // Table 1.
  EXPECT_EQ(S92, 7u);      // Table 2.
  EXPECT_EQ(S2k, 10u);     // Table 3.
}

TEST(SuiteShapeTest, EveryLoopHasWorkloadWeight) {
  for (auto &B : allBenchmarks())
    for (const LoopSpec &LS : B->Loops) {
      EXPECT_GT(LS.LscPercent, 0.0) << B->Name << " " << LS.Name;
      EXPECT_NE(LS.Loop, nullptr);
      EXPECT_FALSE(LS.PaperClass.empty());
    }
}

} // namespace
