//===- tests/analysis_test.cpp - Hybrid analyzer unit tests ---------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "suite/Suite.h"

#include <gtest/gtest.h>

using namespace halo;
using namespace halo::analysis;
using namespace halo::ir;

namespace {

class AnalysisTest : public ::testing::Test {
protected:
  AnalysisTest() : P(Sym), U(Sym, P), Prog(Sym, P) {
    Main = Prog.makeSubroutine("main");
  }
  sym::Context Sym;
  pdag::PredContext P;
  usr::USRContext U;
  Program Prog;
  Subroutine *Main;
  const sym::Expr *c(int64_t V) { return Sym.intConst(V); }
  const sym::Expr *s(const std::string &N) { return Sym.symRef(N); }
};

TEST_F(AnalysisTest, AffineLoopIsStaticPar) {
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId Y = Sym.symbol("Y", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  const sym::Expr *Off = Sym.addConst(Sym.symRef(I), -1);
  L->append(Prog.make<AssignStmt>(ArrayAccess{X, Off},
                                  std::vector<ArrayAccess>{{Y, Off}}, false,
                                  0));
  HybridAnalyzer A(U, Prog);
  LoopPlan Plan = A.analyze(*L);
  EXPECT_EQ(Plan.Class, LoopClass::StaticPar);
  EXPECT_EQ(Plan.classString(), "STATIC-PAR");
  EXPECT_EQ(Plan.maxTestDepth(), -1);
}

TEST_F(AnalysisTest, SymbolicStrideNeedsO1Test) {
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.mul(Sym.addConst(Sym.symRef(I), -1), s("S"))},
      std::vector<ArrayAccess>{}, false, 0));
  HybridAnalyzer A(U, Prog);
  LoopPlan Plan = A.analyze(*L);
  EXPECT_EQ(Plan.Class, LoopClass::Predicated);
  EXPECT_EQ(Plan.classString(), "OI O(1)");
}

TEST_F(AnalysisTest, BaselineCannotParallelizeSymbolicStride) {
  // Read-modify-write at a symbolic stride: the hybrid analyzer proves it
  // with an O(1) test, the static-only proxy cannot (and privatization is
  // excluded by the in-place read).
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  const sym::Expr *Off = Sym.mul(Sym.addConst(Sym.symRef(I), -1), s("S"));
  L->append(Prog.make<AssignStmt>(ArrayAccess{X, Off},
                                  std::vector<ArrayAccess>{{X, Off}},
                                  false, 0));
  AnalyzerOptions Opts;
  Opts.RuntimeTests = false; // The ifort/xlf_r proxy.
  HybridAnalyzer A(U, Prog, Opts);
  LoopPlan Plan = A.analyze(*L);
  EXPECT_NE(Plan.Class, LoopClass::StaticPar);
  EXPECT_NE(Plan.Class, LoopClass::Predicated);
  // The hybrid analyzer handles the same loop with a runtime test.
  HybridAnalyzer A2(U, Prog);
  EXPECT_EQ(A2.analyze(*L).Class, LoopClass::Predicated);
}

TEST_F(AnalysisTest, ComplexityBudgetDropsDeepStages) {
  // Irregular subscripted subscripts generate only O(N^2)-or-worse
  // pairwise tests, which the Sec. 3.6 budget rejects.
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId IDX = Sym.symbol("IDX", 0, true);
  sym::SymbolId JDX = Sym.symbol("JDX", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.arrayRef(IDX, Sym.symRef(I))},
      std::vector<ArrayAccess>{{X, Sym.arrayRef(JDX, Sym.symRef(I))}},
      false, 0));
  HybridAnalyzer A(U, Prog);
  LoopPlan Plan = A.analyze(*L);
  for (const ArrayPlan &AP : Plan.Arrays)
    for (const pdag::CascadeStage &St : AP.Flow.Stages)
      EXPECT_LE(St.Depth, 1);
}

TEST_F(AnalysisTest, HoistableContextSwitchesTLSToHoistUSR) {
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId IDX = Sym.symbol("IDX", 0, true);
  sym::SymbolId JDX = Sym.symbol("JDX", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.arrayRef(IDX, Sym.symRef(I))},
      std::vector<ArrayAccess>{{X, Sym.arrayRef(JDX, Sym.symRef(I))}},
      false, 0));
  // Probe data under which the loop is genuinely independent but no
  // predicate can prove it.
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 16);
  sym::ArrayBinding IV, JV;
  IV.Lo = JV.Lo = 1;
  for (int K = 0; K < 16; ++K) {
    IV.Vals.push_back(2 * K);
    JV.Vals.push_back(2 * K + 1);
  }
  B.setArray(IDX, IV);
  B.setArray(JDX, JV);

  AnalyzerOptions Opts;
  Opts.Probe = &B;
  Opts.HoistableContext = false;
  HybridAnalyzer A1(U, Prog, Opts);
  EXPECT_EQ(A1.analyze(*L).Class, LoopClass::TLS);
  Opts.HoistableContext = true;
  HybridAnalyzer A2(U, Prog, Opts);
  EXPECT_EQ(A2.analyze(*L).Class, LoopClass::HoistUSR);
}

TEST_F(AnalysisTest, ProbeDemonstratesDependence) {
  // X[i] = f(X[i-1]): the probe evaluation of the FIND-USR is nonempty,
  // so the loop classifies STATIC-SEQ.
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(2), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.addConst(Sym.symRef(I), -1)},
      std::vector<ArrayAccess>{{X, Sym.addConst(Sym.symRef(I), -2)}}, false,
      0));
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 32);
  AnalyzerOptions Opts;
  Opts.Probe = &B;
  HybridAnalyzer A(U, Prog, Opts);
  LoopPlan Plan = A.analyze(*L);
  EXPECT_EQ(Plan.Class, LoopClass::StaticSeq);
  EXPECT_EQ(Plan.classString(), "STATIC-SEQ");
}

TEST_F(AnalysisTest, PrivatizationWithSLVDetected) {
  // Every iteration rewrites prefix [0, NW(i)-1]: privatize + SLV under
  // AND_i NW(i) <= NW(N) (the nasa7 EMIT_do5 pattern).
  sym::SymbolId X = Sym.symbol("X", 0, true);
  sym::SymbolId NW = Sym.symbol("NW", 0, true);
  sym::SymbolId I = Sym.symbol("i", 1);
  sym::SymbolId J = Sym.symbol("j", 2);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  DoLoop *Inner = Prog.make<DoLoop>(
      "Lj", J, c(1), Sym.arrayRef(NW, Sym.symRef(I)), 2);
  Inner->append(Prog.make<AssignStmt>(
      ArrayAccess{X, Sym.addConst(Sym.symRef(J), -1)},
      std::vector<ArrayAccess>{}, false, 0));
  L->append(Inner);

  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 10);
  sym::ArrayBinding NV;
  NV.Lo = 1;
  for (int K = 1; K <= 10; ++K)
    NV.Vals.push_back(K); // Non-decreasing: SLV holds.
  B.setArray(NW, NV);
  AnalyzerOptions Opts;
  Opts.Probe = &B;
  HybridAnalyzer A(U, Prog, Opts);
  LoopPlan Plan = A.analyze(*L);
  EXPECT_EQ(Plan.Class, LoopClass::Predicated);
  EXPECT_TRUE(Plan.Techniques.count(Technique::Priv));
  EXPECT_TRUE(Plan.Techniques.count(Technique::SLV));
  EXPECT_EQ(Plan.classString(), "OI O(N)");
}

TEST_F(AnalysisTest, ReductionOnlyLoopIsStaticParWithSRed) {
  sym::SymbolId A = Sym.symbol("A", 0, true);
  Main->declareArray(ArrayDecl{A, Sym.mulConst(s("N"), 1), false});
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(ArrayAccess{A, c(0)},
                                  std::vector<ArrayAccess>{}, true, 0));
  sym::Bindings B;
  B.setScalar(Sym.symbol("N"), 100);
  AnalyzerOptions Opts;
  Opts.Probe = &B;
  HybridAnalyzer An(U, Prog, Opts);
  LoopPlan Plan = An.analyze(*L);
  EXPECT_EQ(Plan.Class, LoopClass::StaticPar);
  EXPECT_TRUE(Plan.Techniques.count(Technique::SRed));
  EXPECT_FALSE(Plan.Techniques.count(Technique::RRed));
}

TEST_F(AnalysisTest, AssumedSizeReductionTriggersBoundsComp) {
  sym::SymbolId A = Sym.symbol("A", 0, true);
  sym::SymbolId Q = Sym.symbol("Q", 0, true);
  Main->declareArray(ArrayDecl{A, nullptr, false}); // Assumed size.
  Main->declareArray(ArrayDecl{Q, nullptr, true});
  sym::SymbolId I = Sym.symbol("i", 1);
  DoLoop *L = Prog.make<DoLoop>("L", I, c(1), s("N"), 1);
  L->append(Prog.make<AssignStmt>(
      ArrayAccess{A, Sym.arrayRef(Q, Sym.symRef(I))},
      std::vector<ArrayAccess>{}, true, 0));
  HybridAnalyzer An(U, Prog);
  LoopPlan Plan = An.analyze(*L);
  EXPECT_TRUE(Plan.Techniques.count(Technique::BoundsComp));
  bool Found = false;
  for (const ArrayPlan &AP : Plan.Arrays)
    if (AP.NeedsBoundsComp) {
      Found = true;
      EXPECT_NE(AP.BoundsUSR, nullptr);
    }
  EXPECT_TRUE(Found);
  EXPECT_EQ(Plan.classString().substr(0, 11), "BOUNDS-COMP");
}

TEST(AnalysisSuiteTest, FactorStatsCountEveryRule) {
  // zeusmp TRANX2_do2100 is the paper's UMEG loop (Fig. 9b): its gated
  // then/else writes factor through the gate rule. The per-loop stats sum
  // every FactorStats field over the loop's arrays, not a subset.
  auto Bs = suite::buildSpec2000();
  for (auto &B : Bs) {
    if (B->Name != "zeusmp")
      continue;
    for (const suite::LoopSpec &LS : B->Loops) {
      if (LS.Name != "TRANX2_do2100")
        continue;
      rt::Memory M;
      sym::Bindings Bd;
      B->Setup(M, Bd, 1);
      AnalyzerOptions Opts;
      Opts.Probe = &Bd;
      HybridAnalyzer A(B->usr(), B->prog(), Opts);
      LoopPlan Plan = A.analyze(*LS.Loop);
      EXPECT_EQ(Plan.classString(), "F/OI O(1)/O(1)");
      EXPECT_GT(A.lastFactorStats().GateRule, 0u);
      return;
    }
  }
  FAIL() << "zeusmp TRANX2_do2100 not found";
}

TEST_F(AnalysisTest, TechniqueStringOrdering) {
  LoopPlan Plan;
  Plan.Techniques = {Technique::Mon, Technique::Priv, Technique::SLV};
  EXPECT_EQ(Plan.techniqueString(), "PRIV,SLV,MON");
}

TEST_F(AnalysisTest, ClassStringDepthFormatting) {
  LoopPlan Plan;
  Plan.Class = LoopClass::Predicated;
  Plan.ReportNeedsFlow = true;
  Plan.ReportFlowDepth = 0;
  EXPECT_EQ(Plan.classString(), "FI O(1)");
  Plan.ReportNeedsOut = true;
  Plan.ReportOutDepth = 1;
  EXPECT_EQ(Plan.classString(), "F/OI O(1)/O(N)");
  Plan.ReportNeedsFlow = false;
  EXPECT_EQ(Plan.classString(), "OI O(N)");
}

} // namespace
